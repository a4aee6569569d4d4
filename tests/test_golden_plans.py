"""Golden plan digests: a refactor or speed-up of the solver must leave every
plan byte-identical.

Each row pins the status and the SHA-256 of ``fileio.dumps_plan`` (None when
no plan is returned) for one seeded instance: preset roadmap seed 0, the first
``n`` pairs of a 24-pair scenario, one mode.  The time limit is far above any
of these solves, so no row depends on machine load.
"""

from __future__ import annotations

import hashlib

import pytest

from mapfla import fileio
from mapfla.harness import gen_preset, gen_scenario, instance_from_scenario
from mapfla.solver import SolverConfig, solve

GOLDEN = (
    # (preset, scenario seed, n, mode, status, plan digest)
    ("sparse-like", 0, 4, "la", "solved", "1a90dd487fcb5f2288e58411bed52db318b082556aec2b660f69ae26f4e0b682"),
    ("sparse-like", 0, 4, "naive", "solved", "1a90dd487fcb5f2288e58411bed52db318b082556aec2b660f69ae26f4e0b682"),
    ("sparse-like", 0, 12, "la", "solved", "070e594b2017a98b224f689ade0f0fec5c2e35b678a53aac5db323b9a4676d68"),
    ("sparse-like", 0, 12, "naive", "failed", None),
    ("sparse-like", 0, 24, "la", "solved", "da42f0d916eab7d7509d681b438e8c065d7d03068b0c8c88c1c01ccfba220c75"),
    ("sparse-like", 0, 24, "naive", "failed", None),
    ("sparse-like", 1, 4, "la", "solved", "ed3e4b52c0314d7b69196ee2c25ebe86556de20cf023413362c3942c2cca8cde"),
    ("sparse-like", 1, 4, "naive", "solved", "ed3e4b52c0314d7b69196ee2c25ebe86556de20cf023413362c3942c2cca8cde"),
    ("sparse-like", 1, 12, "la", "solved", "dca1d9308a2b7b2239c68a0127720ca63608017c9ca219adbbad37092ee9c824"),
    ("sparse-like", 1, 12, "naive", "failed", None),
    ("sparse-like", 1, 24, "la", "solved", "2ac6a4c219169237d128fdf0f0f148ebbae5b7d4a7f66feeffc7f2343405a4a9"),
    ("sparse-like", 1, 24, "naive", "failed", None),
    ("dense-like", 0, 4, "la", "solved", "ef68566bdf5cebb1ab69c04b3ac73f297d33a99ae3960ad9f6d106b6c28662c4"),
    ("dense-like", 0, 4, "naive", "solved", "ef68566bdf5cebb1ab69c04b3ac73f297d33a99ae3960ad9f6d106b6c28662c4"),
    ("dense-like", 0, 12, "la", "solved", "98a0f96685c84d84b0d5e6d0d2772eee29d3f11352e66389ac76fbdbb19b1ca5"),
    ("dense-like", 0, 12, "naive", "failed", None),
    ("dense-like", 0, 24, "la", "solved", "46f805dbfc46492a64270d6649fa42ce195ed6ff75630e873397746293e63a1a"),
    ("dense-like", 0, 24, "naive", "failed", None),
    ("dense-like", 1, 4, "la", "solved", "575ad0ed11631241f85e8ef845e71053774e82a5bd2b85a915813ce6dd99a5fb"),
    ("dense-like", 1, 4, "naive", "solved", "575ad0ed11631241f85e8ef845e71053774e82a5bd2b85a915813ce6dd99a5fb"),
    ("dense-like", 1, 12, "la", "solved", "88d6de0ff36739647a02f1952aac4e3e32fcf0a46d44407492d698a2fa8c8daa"),
    ("dense-like", 1, 12, "naive", "failed", None),
    ("dense-like", 1, 24, "la", "solved", "61434aec0d47b4de5412bdf5bc689032c768c7e65042242bf67f48cad80335c9"),
    ("dense-like", 1, 24, "naive", "failed", None),
)

PAIRS = 24
TIME_LIMIT_S = 120.0


def _digest(plan) -> str | None:
    if plan is None:
        return None
    return hashlib.sha256(fileio.dumps_plan(plan).encode()).hexdigest()


@pytest.mark.parametrize("preset", ["sparse-like", "dense-like"])
def test_plans_match_golden_digests(preset):
    roadmap, radius = gen_preset(preset, 0)
    got = []
    for row in GOLDEN:
        name, scen_seed, n, mode = row[:4]
        if name != preset:
            continue
        scen = gen_scenario(roadmap, PAIRS, seed=scen_seed)
        inst = instance_from_scenario(roadmap, radius, scen, n)
        result = solve(inst, SolverConfig(mode=mode, time_limit=TIME_LIMIT_S))
        got.append((name, scen_seed, n, mode, result.status, _digest(result.plan)))
    assert got == [row for row in GOLDEN if row[0] == preset]
