import hashlib
import xml.etree.ElementTree as ET

import pytest

from helpers import chain_clear_instance, sidestep_instance
from mapfla.render import render_plan
from mapfla.solver import SolverConfig, solve


def test_empty_plan_single_frame(tmp_path):
    inst = chain_clear_instance()
    frames = render_plan(inst, [], tmp_path)
    assert len(frames) == 1
    assert frames[0].name == "frame_0000.svg"


def test_one_frame_per_step_plus_initial(tmp_path):
    inst = chain_clear_instance()
    result = solve(inst, SolverConfig(time_limit=5.0))
    frames = render_plan(inst, result.plan, tmp_path)
    assert len(frames) == len(result.plan) + 1
    for f in frames:
        root = ET.parse(f).getroot()
        assert root.tag.endswith("svg")


def test_frames_show_agents_and_margin(tmp_path):
    inst = chain_clear_instance()
    result = solve(inst, SolverConfig(time_limit=5.0))
    frames = render_plan(inst, result.plan, tmp_path)
    first = frames[0].read_text()
    # 5 vertices + 3 agent disks + 3 goal rings, plus the margin capsule
    assert first.count("<circle") == 5 + 3 + 3
    assert "stroke-linecap" in first  # interference margin of the active move
    last = frames[-1].read_text()
    assert "stroke-linecap" not in last  # terminal frame has no active move


@pytest.mark.parametrize(
    "make, digest",
    [
        (chain_clear_instance, "766aae6171b3e46a3f3a7a4212cc2b02812e1e67b78eb7d2d39dcb9de6065210"),
        (sidestep_instance, "004ef57e941bbb898c6cd0e024b0116d820e25b99d4206c92fa14947a885cbd3"),
    ],
    ids=["chain-clear", "sidestep"],
)
def test_frames_keep_their_bytes(tmp_path, make, digest):
    """SHA-256 of the frame files concatenated in order, pinned so that a
    refactor of the renderer cannot change a frame unnoticed."""
    inst = make()
    frames = render_plan(inst, solve(inst, SolverConfig()).plan, tmp_path)
    assert hashlib.sha256(b"".join(f.read_bytes() for f in frames)).hexdigest() == digest
