"""Microbenchmark of the plan validator's replay on sparse-like plans
(pytest-benchmark).

    pytest tests/bench_validator.py

The suite collects only ``test_*.py`` files, so it does not run this one.
Each round validates the la plans of criterion-6 scenarios 0-9 at n = 10,
25 and 40 on the sparse-like roadmap of seed 0.  The ``fresh`` case gives
every round a new copy of the roadmap, so the round builds the band table
it reads; the ``kept`` case reuses the roadmap, whose table an earlier
round already filled, as every validation on a shared roadmap does.
"""

import pytest

from mapfla.harness import gen_preset, gen_scenario, instance_from_scenario
from mapfla.model import Instance, Roadmap
from mapfla.solver import SOLVED, solve
from mapfla.validator import validate_plan


def _solved_plans():
    roadmap, radius = gen_preset("sparse-like", 0)
    cases = []
    for seed in range(10):
        scen = gen_scenario(roadmap, 40, seed=seed)
        for n in (10, 25, 40):
            inst = instance_from_scenario(roadmap, radius, scen, n)
            result = solve(inst)
            if result.status == SOLVED:
                cases.append((inst, result.plan))
    return roadmap, cases


@pytest.mark.parametrize("table", ["fresh", "kept"])
def test_validate_plan_on_sparse_plans(benchmark, table):
    roadmap, cases = _solved_plans()

    def on(rm: Roadmap):
        return [
            (Instance(rm, inst.radius, inst.starts, inst.goals), plan)
            for inst, plan in cases
        ]

    def setup():
        rm = roadmap if table == "kept" else Roadmap(roadmap.points, roadmap.edge_list)
        return (on(rm),), {}

    def replay(pairs):
        return [validate_plan(inst, plan) for inst, plan in pairs]

    if table == "kept":
        replay(on(roadmap))
    reports = benchmark.pedantic(replay, setup=setup, rounds=50)
    assert all(report.ok for report in reports)
    benchmark.extra_info["plans"] = len(cases)
    benchmark.extra_info["moves"] = sum(len(plan) for _, plan in cases)
