"""Microbenchmark of the outer loop's path search (pytest-benchmark).

    pytest tests/bench_search.py

The suite collects only ``test_*.py`` files, so it does not run this one.
It records every ``lex_shortest_path`` call of the la solves of one set,
with its answer, then times replaying the calls on the solves' roadmaps,
whose goals' hop tables the solves already grew:

* ``criterion-6``: the n = 40 cell of criterion 6, the 25 scenarios of the
  sparse-like roadmap of seed 0;
* ``toys-12-5``: the 12-vertex 5-agent toys of seeds 0-199.

Each replayed path must equal the recorded one.  ``extra_info`` gives the
number of calls and how many of them ran the unbounded search after the
pruned one missed.
"""

from unittest import mock

import pytest

from helpers import toy_instance
from mapfla import solver
from mapfla.harness import gen_preset, gen_scenario, instance_from_scenario
from mapfla.solver import SolverConfig, solve


def _criterion_6():
    roadmap, radius = gen_preset("sparse-like", 0)
    return [
        instance_from_scenario(
            roadmap, radius, gen_scenario(roadmap, 40, seed=i, name="sparse-like"), 40
        )
        for i in range(25)
    ]


SETS = {
    "criterion-6": _criterion_6,
    "toys-12-5": lambda: [toy_instance(seed, 12, 5) for seed in range(200)],
}


def _recorded_calls(instances):
    """Each ``lex_shortest_path`` call of the la solves of ``instances``, as
    ``(args, path, unbounded)``, where ``unbounded`` says whether the call
    ran its layered loop a second time, without the bound."""
    calls = []
    search = solver.lex_shortest_path
    with mock.patch.object(solver, "_layered_path", wraps=solver._layered_path) as loop:

        def recording(roadmap, src, dst, blocked, banned=frozenset()):
            args = (roadmap, src, dst, blocked, frozenset(banned))
            runs = loop.call_count
            path = search(*args)
            calls.append((args, path, loop.call_count - runs == 2))
            return path

        with mock.patch.object(solver, "lex_shortest_path", recording):
            for inst in instances:
                solve(inst, SolverConfig(time_limit=30.0))
    return calls


@pytest.mark.parametrize("which", SETS)
def test_replay_the_outer_loops_path_searches(benchmark, which):
    calls = _recorded_calls(SETS[which]())

    def replay():
        return [solver.lex_shortest_path(*args) for args, _, _ in calls]

    paths = benchmark.pedantic(replay, rounds=30, warmup_rounds=1)
    assert paths == [path for _, path, _ in calls]
    benchmark.extra_info["calls"] = len(calls)
    benchmark.extra_info["unbounded"] = sum(unbounded for _, _, unbounded in calls)
