"""Microbenchmark of the outer loop's path search (pytest-benchmark).

    pytest tests/bench_search.py

The suite collects only ``test_*.py`` files, so it does not run this one.
It records every ``lex_shortest_path`` call of the la solves of one set,
with its answer, then times replaying the calls on the views they were
given, whose goals' hop tables the solves already grew:

* ``criterion-6``: the n = 40 cell of criterion 6, the 25 scenarios of the
  sparse-like roadmap of seed 0;
* ``sparse-crowded``: n = 56, 60, ..., 80 on the first 5 of those
  scenarios, each drawn for 80 agents and truncated, as perfbench's
  sparse-crowded workload builds them;
* ``toys-12-5``: the 12-vertex 5-agent toys of seeds 0-199.

Each replayed path must equal the recorded one.  ``extra_info`` gives the
number of calls and how many of them each stage answered: the walk at the
source's depth D (``D``), the walk at D + 1 (``D+1``) or the full BFS, a
``_Search`` built for the call (``full``); the trivial calls no stage ran
are left out.

Its medians are not a comparison of two sides: on unchanged code they swing
by up to 1.6x between runs of this script in separate processes, on a
2-core host.  Two versions of the search are compared by replaying the same
recorded calls through each of them in one process, alternating the sides.
"""

from unittest import mock

import pytest

from helpers import toy_instance
from mapfla import solver
from mapfla.harness import gen_preset, gen_scenario, instance_from_scenario
from mapfla.solver import SolverConfig, solve


def _sparse(pairs, scenarios, n_values):
    roadmap, radius = gen_preset("sparse-like", 0)
    pool = [gen_scenario(roadmap, pairs, seed=i, name="sparse-like") for i in scenarios]
    return [
        instance_from_scenario(roadmap, radius, scenario, n)
        for n in n_values
        for scenario in pool
    ]


SETS = {
    "criterion-6": lambda: _sparse(40, range(25), (40,)),
    "sparse-crowded": lambda: _sparse(80, range(5), range(56, 81, 4)),
    "toys-12-5": lambda: [toy_instance(seed, 12, 5) for seed in range(200)],
}


def _recorded_calls(instances):
    """Each ``lex_shortest_path`` call of the la solves of ``instances``, as
    ``(args, path, stage)``, where ``stage`` names the search that answered
    (see the module docstring), None for a trivial call."""
    calls = []
    search = solver.lex_shortest_path
    with (
        mock.patch.object(solver, "_hop_walk", wraps=solver._hop_walk) as walk,
        mock.patch.object(solver, "_Search", wraps=solver._Search) as full,
    ):

        def recording(view, src, dst, blocked):
            args = (view, src, dst, blocked)
            walks, fulls = walk.call_count, full.call_count
            path = search(*args)
            stage = (None, "D", "D+1")[walk.call_count - walks]
            calls.append((args, path, "full" if full.call_count > fulls else stage))
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
    for stage in ("D", "D+1", "full"):
        benchmark.extra_info[stage] = sum(got == stage for _, _, got in calls)
