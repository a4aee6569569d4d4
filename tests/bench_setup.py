"""Microbenchmark of a first solve's set-up on fresh dense-like roadmaps
(pytest-benchmark).

    pytest tests/bench_setup.py

The suite collects only ``test_*.py`` files, so it does not run this one.
Each round takes fresh copies of the dense-like roadmaps of seeds 0-19, with
2, 4, 6 or 8 agents as on the perfbench dense-fresh workload, and times one
part of the first la solve on each:

* ``solve``: the whole first solve;
* ``edge-pass``: the one pass over the edge list that gives
  ``Roadmap.edge_set``, ``adjacency`` and ``edge_issues``;
* ``validation``: ``validate_roadmap``, once the edge pass has run;
* ``hop-tables``: the goals' hop tables (``Roadmap.hops_to``), grown by the
  calls the solve makes, replayed in order once the edge pass has run.
"""

from unittest import mock

import pytest

from mapfla.harness import gen_preset, gen_scenario, instance_from_scenario
from mapfla.model import Instance, Roadmap, validate_roadmap
from mapfla.solver import SOLVED, solve


def _first_solves():
    """Per roadmap, its instance and the ``hops_to`` calls of its first solve."""
    cases = []
    hops_to = Roadmap.hops_to
    for seed in range(20):
        roadmap, radius = gen_preset("dense-like", seed)
        inst = instance_from_scenario(roadmap, radius, gen_scenario(roadmap, 2 + 2 * (seed % 4), seed))
        calls = []

        def recording(rm, goal, src=None):
            calls.append((goal, src))
            return hops_to(rm, goal, src)

        with mock.patch.object(Roadmap, "hops_to", recording):
            assert solve(inst).status == SOLVED
        cases.append((inst, calls))
    return cases


def _solve(pairs):
    return [solve(inst) for inst, _ in pairs]


def _edge_pass(pairs):
    return [inst.roadmap.edge_set for inst, _ in pairs]


def _validation(pairs):
    return [validate_roadmap(inst) for inst, _ in pairs]


def _hop_tables(pairs):
    return [inst.roadmap.hops_to(goal, src) for inst, calls in pairs for goal, src in calls]


PARTS = {
    "solve": (_solve, False),
    "edge-pass": (_edge_pass, False),
    "validation": (_validation, True),
    "hop-tables": (_hop_tables, True),
}


@pytest.mark.parametrize("part", PARTS)
def test_first_solve_setup_on_fresh_dense_roadmaps(benchmark, part):
    run, after_edge_pass = PARTS[part]
    cases = _first_solves()

    def setup():
        pairs = []
        for inst, calls in cases:
            rm = Roadmap(inst.roadmap.points, inst.roadmap.edge_list)
            if after_edge_pass:
                rm.edge_set
            pairs.append((Instance(rm, inst.radius, inst.starts, inst.goals), calls))
        return (pairs,), {}

    benchmark.pedantic(run, setup=setup, rounds=50)
    benchmark.extra_info["roadmaps"] = len(cases)
    benchmark.extra_info["hops_to_calls"] = sum(len(calls) for _, calls in cases)
