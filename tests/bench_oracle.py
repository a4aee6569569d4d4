"""Microbenchmark of the joint-state oracle on fixed toys (pytest-benchmark).

    pytest tests/bench_oracle.py

The suite collects only ``test_*.py`` files, so it does not run this one.
Each round searches every toy of a family once.  The goals' hop arrays are
filled first, as a solve on the same roadmap leaves them, so the rounds time
the search alone.
"""

import pytest

from helpers import toy_instance
from mapfla.oracle import BUDGET_EXCEEDED, joint_bfs_solve

FAMILIES = {
    "12 vertices, 3 agents": (12, 3, range(100)),
    "16 vertices, 5 agents": (16, 5, range(5)),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_oracle_on_toys(benchmark, family):
    n_vertices, n_agents, seeds = FAMILIES[family]
    toys = [toy_instance(seed, n_vertices, n_agents) for seed in seeds]
    for toy in toys:
        for goal in toy.goals:
            toy.roadmap.hops_to(goal)
    results = benchmark(lambda: [joint_bfs_solve(toy) for toy in toys])
    assert all(result.status != BUDGET_EXCEEDED for result in results)
    benchmark.extra_info["expanded"] = sum(result.expanded for result in results)
