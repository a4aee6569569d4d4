import contextlib
import io
import logging
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import case3_instance, ordering_instance, star_instance
from mapfla import cli, fileio, harness
from mapfla.cli import main
from mapfla.harness import gen_preset
from mapfla.model import Instance, Move, make_roadmap
from mapfla.solver import check_instance


def write_fixture(tmp_path: Path, instance, stem: str):
    map_path = tmp_path / f"{stem}.map"
    scen_path = tmp_path / f"{stem}.scen"
    fileio.save_roadmap(map_path, instance.roadmap, instance.radius)
    fileio.save_scenario(
        scen_path, map_path.name, tuple(zip(instance.starts, instance.goals))
    )
    return map_path, scen_path


def test_gen_twice_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = main(
            ["gen", "--preset", "sparse-like", "--seed", "7",
             "--scenarios", "3", "--pairs", "8", "--out", str(out)]
        )
        assert code == 0
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    assert len(files_a) == 4  # map + 3 scenarios
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_rejects_negative_scenarios(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["gen", "--scenarios", "-3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "--scenarios must be >= 0, got -3" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("pairs", [-3, 0, 500])
def test_gen_rejects_bad_pairs_before_writing(tmp_path, capsys, pairs):
    out = tmp_path / "out"
    out.mkdir()
    code = main(["gen", "--preset", "sparse-like", "--seed", "0", "--scenarios", "2",
                 "--pairs", str(pairs), "--out", str(out)])
    captured = capsys.readouterr()
    n_vertices = gen_preset("sparse-like", 0)[0].n_vertices
    assert code == 1
    assert f"--pairs must be in 1..{n_vertices}, got {pairs}" in captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("pairs", [-3, 0])
def test_bench_rejects_pairs_below_one(capsys, pairs):
    code = main(["bench", "--scenarios", "1", "--n", "2", "--pairs", str(pairs)])
    captured = capsys.readouterr()
    assert code == 1
    n_vertices = gen_preset("sparse-like", 0)[0].n_vertices
    assert f"--pairs must be in 1..{n_vertices}, got {pairs}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("n", ["2..12", "11", "0..3"])
def test_bench_rejects_agent_counts_outside_pairs_before_solving(capsys, monkeypatch, n):
    monkeypatch.setattr(harness, "run_bench", lambda *a, **k: pytest.fail("bench ran"))
    code = main(["bench", "--scenarios", "2", "--pairs", "10", "--n", n, "--modes", "la"])
    captured = capsys.readouterr()
    assert code == 1
    assert f"--n {n} must lie in 1..10, the --pairs count" in captured.err
    assert captured.out == ""


def test_solve_validate_render_pipeline(tmp_path, capsys):
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    plan_path = tmp_path / "plan.txt"
    code = main(
        ["solve", "--map", str(map_path), "--scen", str(scen_path),
         "--mode", "la", "--order", "perm:1,0", "--time-limit", "10",
         "--out", str(plan_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "status=solved" in out and "moves=" in out and "ms=" in out
    assert plan_path.exists()

    assert main(
        ["validate", "--map", str(map_path), "--scen", str(scen_path),
         "--plan", str(plan_path)]
    ) == 0

    frames_dir = tmp_path / "frames"
    assert main(
        ["render", "--map", str(map_path), "--scen", str(scen_path),
         "--plan", str(plan_path), "--out", str(frames_dir)]
    ) == 0
    plan = fileio.load_plan(plan_path)
    assert len(list(frames_dir.glob("frame_*.svg"))) == len(plan) + 1


def test_solve_failed_exit_code(tmp_path, capsys):
    inst = star_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "star")
    code = main(
        ["solve", "--map", str(map_path), "--scen", str(scen_path),
         "--time-limit", "1"]
    )
    assert code == 2
    assert "status=failed" in capsys.readouterr().out


def test_ordering_fixture_cli_behaviour(tmp_path, capsys):
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    base = ["solve", "--map", str(map_path), "--scen", str(scen_path),
            "--time-limit", "10"]
    assert main(base + ["--order", "index"]) == 2
    assert main(base + ["--order", "random-restarts:10:1"]) == 0


@pytest.mark.parametrize(
    "order, message",
    [
        ("random-restarts:3", "malformed order spec 'random-restarts:3'"),
        ("random-restarts:0:1", "restart count must be >= 1"),
    ],
    ids=["malformed", "zero-restarts"],
)
def test_a_bad_restart_spec_is_a_usage_error(tmp_path, capsys, order, message):
    map_path, scen_path = write_fixture(tmp_path, ordering_instance(), "order")
    code = main(["solve", "--map", str(map_path), "--scen", str(scen_path),
                 "--order", order])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_agents_zero_is_usage_error(tmp_path, capsys):
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    code = main(
        ["solve", "--map", str(map_path), "--scen", str(scen_path),
         "--agents", "0"]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_non_finite_time_limit_is_usage_error(tmp_path, capsys):
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    for value in ("nan", "inf", "-inf"):
        code = main(
            ["solve", "--map", str(map_path), "--scen", str(scen_path),
             f"--time-limit={value}"]
        )
        assert code == 1
        assert "time_limit must be positive and finite" in capsys.readouterr().err


def test_agents_flag_truncates(tmp_path, capsys):
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    # only agent 0: its lone path is blocked by nobody (agent 1 not present)
    code = main(
        ["solve", "--map", str(map_path), "--scen", str(scen_path),
         "--agents", "1", "--time-limit", "10"]
    )
    assert code == 0


def test_malformed_file_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text("mapfla-roadmap 1\nr 0.5\nv 0 zero 0\n")
    scen = tmp_path / "s.scen"
    scen.write_text("mapfla-scen 1\nroadmap bad.map\na 0 0\n")
    code = main(["solve", "--map", str(bad), "--scen", str(scen)])
    assert code == 1
    assert ":3:" in capsys.readouterr().err


def test_malformed_scenario_record_names_its_line(tmp_path, capsys):
    map_path, _ = write_fixture(tmp_path, ordering_instance(), "order")
    scen = tmp_path / "s.scen"
    scen.write_text("mapfla-scen 1\nroadmap order.map\n\na 0 1 2\n")
    code = main(["solve", "--map", str(map_path), "--scen", str(scen)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {scen}:4: a record needs start and goal\n"
    assert captured.out == ""


def test_validate_detects_broken_plan(tmp_path, capsys):
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    plan_path = tmp_path / "p.txt"
    fileio.save_plan(plan_path, [Move(0, 1, 2)])  # agent 0 is not at vertex 1
    code = main(
        ["validate", "--map", str(map_path), "--scen", str(scen_path),
         "--plan", str(plan_path)]
    )
    assert code == 2
    assert "move 0" in capsys.readouterr().out


def _line_instance():
    """Agents 0 and 1 on vertices 0 and 2 of the line 0-1-2, goals swapped."""
    rm = make_roadmap([(0.0, 0.0), (1.2, 0.0), (2.4, 0.0)], [(0, 1), (1, 2)])
    return Instance(rm, 0.5, (0, 2), (2, 0))


@pytest.mark.parametrize(
    "plan, line",
    [
        (
            [Move(0, 0, 1), Move(0, 1, 2)],
            "invalid: move 1: target vertex 2 occupied by agent 1",
        ),
        (
            [Move(0, 0, 1)],
            "invalid: goal not reached: agent 0 ended at vertex 1, goal is 2",
        ),
    ],
    ids=["bad-move", "goal-not-reached"],
)
def test_validate_prints_the_reason_once(tmp_path, capsys, plan, line):
    # A bad move printed its index twice: "invalid at move 1: move 1: ...".
    map_path, scen_path = write_fixture(tmp_path, _line_instance(), "line")
    plan_path = tmp_path / "p.txt"
    fileio.save_plan(plan_path, plan)
    code = main(
        ["validate", "--map", str(map_path), "--scen", str(scen_path),
         "--plan", str(plan_path)]
    )
    assert code == 2
    assert capsys.readouterr().out.splitlines() == [line]


def test_render_rejects_teleporting_plan(tmp_path, capsys):
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    plan_path = tmp_path / "p.txt"
    fileio.save_plan(plan_path, [Move(0, 1, 2)])  # agent 0 is not at vertex 1
    code = main(
        ["render", "--map", str(map_path), "--scen", str(scen_path),
         "--plan", str(plan_path), "--out", str(tmp_path / "frames")]
    )
    assert code == 1
    assert "error: move 0: agent 0 is at 0, not 1" in capsys.readouterr().err
    assert not (tmp_path / "frames").exists()


@pytest.mark.parametrize("dst", [9999, -1])
def test_render_rejects_a_move_off_the_roadmap(tmp_path, capsys, dst):
    # 9999 raised an IndexError in the frame code; -1 drew the last vertex.
    # The plan parser now rejects -1 itself, naming the line.
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    plan_path = tmp_path / "p.txt"
    fileio.save_plan(plan_path, [Move(0, 0, dst)])
    code = main(
        ["render", "--map", str(map_path), "--scen", str(scen_path),
         "--plan", str(plan_path), "--out", str(tmp_path / "frames")]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [
        f"error: move 0: (0, {dst}) is not a roadmap edge"
        if dst >= 0
        else f"error: {plan_path}:2: to vertex must be >= 0, got {dst}"
    ]
    assert not (tmp_path / "frames").exists()


@pytest.mark.parametrize(
    "plan, message",
    [
        ([Move(0, 0, 1), Move(0, 1, 2)], "move 1: target vertex 2 is occupied"),
        ([Move(0, 0, 1), Move(0, 0, 1)], "move 1: agent 0 is at 1, not 0"),
        ([Move(0, 0, 1), Move(5, 1, 0)], "move 1: no agent 5 in state"),
    ],
    ids=["occupied", "wrong-source", "absent-agent"],
)
def test_render_rejects_a_bad_move_naming_its_index(tmp_path, capsys, plan, message):
    # These gave no index: "target vertex 2 is occupied".
    map_path, scen_path = write_fixture(tmp_path, _line_instance(), "line")
    plan_path = tmp_path / "p.txt"
    fileio.save_plan(plan_path, plan)
    code = main(
        ["render", "--map", str(map_path), "--scen", str(scen_path),
         "--plan", str(plan_path), "--out", str(tmp_path / "frames")]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "frames").exists()


@pytest.mark.parametrize("record", ["m -1 0 1", "m 0 -1 1", "m 0 0 -1"])
def test_validate_rejects_a_negative_plan_id_as_malformed(tmp_path, capsys, record):
    # It was read as a move and judged an invalid plan (exit 2).
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    plan_path = tmp_path / "p.txt"
    plan_path.write_text(f"mapfla-plan 1\nm 0 0 1\n{record}\n")
    code = main(
        ["validate", "--map", str(map_path), "--scen", str(scen_path),
         "--plan", str(plan_path)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {plan_path}:3: ") and "must be >= 0, got -1" in line


def test_validate_rejects_a_plan_that_is_not_utf8_naming_its_line(tmp_path, capsys):
    # It printed the codec's message, which names neither the file nor the line.
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    plan_path = tmp_path / "p.txt"
    plan_path.write_bytes(b"mapfla-plan 1\nm 0 0 1\nm 0 \xff 1\n")
    code = main(
        ["validate", "--map", str(map_path), "--scen", str(scen_path),
         "--plan", str(plan_path)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {plan_path}:3: not UTF-8: invalid start byte 0xff"
    ]


def invalid_instances():
    """A start past the last vertex, and two agents on one start."""
    rm = make_roadmap([(0.0, 0.0), (1.2, 0.0), (2.4, 0.0)], [(0, 1), (1, 2)])
    return (
        (Instance(rm, 0.5, (9,), (1,)), "start of agent 0 is missing vertex 9"),
        (Instance(rm, 0.5, (0, 0), (1, 2)), "start vertex 0 assigned to agents 0 and 1"),
    )


def test_validate_rejects_invalid_instance(tmp_path, capsys):
    plan_path = tmp_path / "p.txt"
    fileio.save_plan(plan_path, [Move(0, 0, 1)])
    for k, (inst, issue) in enumerate(invalid_instances()):
        map_path, scen_path = write_fixture(tmp_path, inst, f"bad{k}")
        code = main(
            ["validate", "--map", str(map_path), "--scen", str(scen_path),
             "--plan", str(plan_path)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "invalid instance" in captured.err and issue in captured.err
        assert captured.out == ""


def test_render_rejects_invalid_instance(tmp_path, capsys):
    plan_path = tmp_path / "p.txt"
    fileio.save_plan(plan_path, [Move(0, 0, 1)])
    for k, (inst, issue) in enumerate(invalid_instances()):
        map_path, scen_path = write_fixture(tmp_path, inst, f"bad{k}")
        frames_dir = tmp_path / f"frames{k}"
        code = main(
            ["render", "--map", str(map_path), "--scen", str(scen_path),
             "--plan", str(plan_path), "--out", str(frames_dir)]
        )
        assert code == 1
        assert issue in capsys.readouterr().err
        assert not frames_dir.exists()


def test_missing_file_is_io_error(tmp_path, capsys):
    code = main(["solve", "--map", str(tmp_path / "no.map"),
                 "--scen", str(tmp_path / "no.scen")])
    assert code == 1


def test_bad_usage_is_exit_1(capsys):
    assert main(["solve"]) == 1  # missing required flags
    assert main(["frobnicate"]) == 1


def test_bench_cli_csv(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    code = main(
        ["bench", "--preset", "sparse-like", "--seed", "0",
         "--scenarios", "2", "--pairs", "6", "--modes", "la,naive",
         "--n", "2..3", "--time-limit", "5", "--jobs", "1",
         "--out", str(out_csv)]
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("roadmap,mode,n,")
    assert len(lines) == 1 + 2 * 2  # 2 modes x 2 n-values


def test_bench_cli_without_out_prints_the_csv(capsys):
    args = ["bench", "--scenarios", "2", "--pairs", "6", "--modes", "la",
            "--n", "2..3", "--time-limit", "5"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "roadmap,mode,n,solved,failed,timeout,success_rate,mean_ms"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["sparse-like", "la", "2"], ["sparse-like", "la", "3"],
    ]


def test_bench_rejects_jobs_below_one(capsys):
    code = main(
        ["bench", "--preset", "sparse-like", "--scenarios", "1",
         "--modes", "naive", "--n", "2", "--jobs", "-5"]
    )
    assert code == 1
    assert "jobs must be >= 1" in capsys.readouterr().err


def test_bench_rejects_empty_scenario_set(capsys):
    code = main(["bench", "--scenarios", "0", "--modes", "naive", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "has no scenarios" in captured.err
    assert captured.out == ""


def test_bench_rejects_negative_scenarios(capsys):
    code = main(["bench", "--scenarios", "-1", "--modes", "naive", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--scenarios must be >= 0, got -1" in captured.err
    assert captured.out == ""


def test_bench_rejects_reversed_n_range(capsys):
    code = main(["bench", "--scenarios", "1", "--modes", "naive", "--n", "5..2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--n range 5..2 is empty" in captured.err
    assert captured.out == ""


def test_bench_rejects_empty_modes(capsys):
    code = main(["bench", "--scenarios", "1", "--modes", "", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--modes names no mode" in captured.err
    assert captured.out == ""


def test_bench_rejects_repeated_mode(capsys):
    # harness.run_bench owns the check; main turns its ValueError into exit 1.
    code = main(["bench", "--scenarios", "1", "--modes", "la,naive,la", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "modes ['la', 'naive', 'la'] repeat a mode" in captured.err
    assert captured.out == ""


def test_bench_rejects_unknown_mode_before_solving(monkeypatch, capsys):
    monkeypatch.setattr(harness, "solve", lambda *a, **k: pytest.fail("solved"))
    code = main(["bench", "--scenarios", "1", "--modes", "la,foo", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown mode 'foo'" in captured.err
    assert captured.out == ""


# -- MAPFLA_LOG ----------------------------------------------------------------


def _solve_with_log(tmp_path, monkeypatch, value, instance, *options):
    if value is None:
        monkeypatch.delenv("MAPFLA_LOG", raising=False)
    else:
        monkeypatch.setenv("MAPFLA_LOG", value)
    map_path, scen_path = write_fixture(tmp_path, instance, "log")
    return main(["solve", "--map", str(map_path), "--scen", str(scen_path), *options])


@pytest.mark.parametrize("value", [None, "", "off", "OFF"], ids=["unset", "empty", "off", "OFF"])
def test_mapfla_log_off_prints_no_diagnostics(tmp_path, monkeypatch, capsys, value):
    code = _solve_with_log(tmp_path, monkeypatch, value, ordering_instance(),
                           "--order", "perm:1,0")
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("status=solved ")
    assert captured.err == ""


@pytest.mark.parametrize("value", ["info", "trace", "TRACE"])
def test_mapfla_log_info_and_trace_print_the_solve_line(tmp_path, monkeypatch, capsys, value):
    code = _solve_with_log(tmp_path, monkeypatch, value, ordering_instance(),
                           "--order", "perm:1,0")
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("status=solved ")
    assert captured.err.startswith("mapfla.solver: solve: solved after ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("value, traced", [("info", False), ("trace", True)])
def test_only_mapfla_log_trace_prints_the_debug_lines(tmp_path, monkeypatch, capsys,
                                                      value, traced):
    assert _solve_with_log(tmp_path, monkeypatch, value, case3_instance()) == 2
    err = capsys.readouterr().err
    assert ("mapfla.solver: edge (0, 1): vertex 2 not cleared\n" in err) is traced
    assert err.splitlines()[-1].startswith("mapfla.solver: solve: failed after ")


@pytest.mark.parametrize("value", ["debug", "1", "info "])
def test_an_unknown_mapfla_log_value_is_a_usage_error(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setattr(cli, "solve", lambda *a, **k: pytest.fail("solved"))
    code = _solve_with_log(tmp_path, monkeypatch, value, ordering_instance())
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: MAPFLA_LOG must be off, info or trace, got {value!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("value, argv, code", [
    (None, (), 0),
    ("off", (), 0),
    ("info", (), 0),
    ("trace", (), 0),
    ("debug", (), 1),
    ("trace", ("solve", "--scen", "log.scen"), 1),
], ids=["unset", "off", "info", "trace", "unknown", "no-map"])
def test_main_leaves_the_mapfla_logger_as_it_found_it(tmp_path, monkeypatch, capsys,
                                                      value, argv, code):
    logger = logging.getLogger("mapfla")
    before = logger.handlers[:], logger.level
    if argv:
        monkeypatch.setenv("MAPFLA_LOG", value)
        assert main(list(argv)) == code
    else:
        assert _solve_with_log(tmp_path, monkeypatch, value, ordering_instance(),
                               "--order", "perm:1,0") == code
    assert (logger.handlers, logger.level) == before


# -- malformed files through the CLI ---------------------------------------------


@pytest.fixture(scope="module")
def gen_files(tmp_path_factory):
    """The bytes of a ``gen`` roadmap and scenario with 8 pairs, and of the
    plan ``solve`` writes for them, then the directory a case writes into."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--seed", "1", "--scenarios", "1", "--pairs", "8",
                     "--out", str(root)]) == 0
        map_path, scen_path = root / "sparse-like-1.map", root / "sparse-like-1-scen00.scen"
        assert main(["solve", "--map", str(map_path), "--scen", str(scen_path),
                     "--out", str(root / "plan")]) == 0
    files = {name: (root / src).read_bytes() for name, src in (
        ("map", map_path.name), ("scen", scen_path.name), ("plan", "plan"))}
    case = root / "case"
    case.mkdir()
    return files, case


_TOKENS = st.sampled_from([
    "0", "1", "7", "40", "-1", "99999", "0.5", "-0.0", "1e308", "nan", "inf", "x",
    "r", "v", "e", "a", "m", "roadmap", "#",
])


_NUMBERS = st.one_of(st.integers(-1, 200).map(str), st.floats(-1, 30).map(repr))


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """``data`` after one to three edits: a line dropped, repeated, swapped or
    inserted, a field set to another number, a token replaced, dropped or
    added; then, at times, the bytes cut or a byte put in."""
    lines = data.decode().split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        edit = draw(st.sampled_from(["drop", "repeat", "swap", "insert", "token", "number"]))
        if edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "insert":
            lines.insert(i, " ".join(draw(st.lists(_TOKENS, min_size=1, max_size=5))))
        elif edit == "number" and len(tokens) > 1:
            tokens[draw(st.integers(1, len(tokens) - 1))] = draw(_NUMBERS)
            lines[i] = " ".join(tokens)
        elif edit == "token":
            k = draw(st.integers(0, len(tokens)))
            tokens[k : k + draw(st.integers(0, 1))] = draw(st.lists(_TOKENS, max_size=1))
            lines[i] = " ".join(tokens)
    out = "\n".join(lines).encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(out)))
        tail = out[at:] if draw(st.booleans()) else b""
        out = out[:at] + draw(st.sampled_from([b"", b"\xff", b"\r", b"\x00", b"\n\n"])) + tail
    return out


def _format_error(command: str, map_path, scen_path, plan_path) -> str | None:
    """The file-format error ``command`` must report: the first of the files
    it reads, in its order, that does not parse; an instance error stops
    ``validate`` and ``render`` before they read the plan."""
    try:
        roadmap, radius = fileio.load_roadmap(map_path)
        name, pairs = fileio.load_scenario(scen_path)
        if command == "solve":
            return None
        check_instance(harness.instance_from_scenario(
            roadmap, radius, harness.Scenario(name, pairs)))
        fileio.load_plan(plan_path)
    except fileio.FileFormatError as exc:
        return str(exc)
    except (ValueError, KeyError):
        return None
    return None


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_file_gives_an_exit_code_and_an_error_line(gen_files, data):
    files, case = gen_files
    # One file a case: a map that does not parse would hide the other two.
    mutate = data.draw(st.sampled_from(sorted(files)), label="mutate")
    paths = {name: case / name for name in files}
    for name, original in files.items():
        text = data.draw(_mutated(original), label=name) if name == mutate else original
        paths[name].write_bytes(text)
    instance = ["--map", str(paths["map"]), "--scen", str(paths["scen"])]
    runs = {
        "solve": ["solve", *instance, "--time-limit", "2"],
        "validate": ["validate", *instance, "--plan", str(paths["plan"])],
        "render": ["render", *instance, "--plan", str(paths["plan"]),
                   "--out", str(case / "frames")],
    }
    for command, argv in runs.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (command, code)
        expected = _format_error(command, paths["map"], paths["scen"], paths["plan"])
        if code == 1:
            assert err.getvalue().startswith("error: "), (command, err.getvalue())
        if expected is not None:
            assert code == 1 and err.getvalue() == f"error: {expected}\n", command
            assert re.match(r"(.+):([1-9][0-9]*): ", expected)[1] in map(str, paths.values())
