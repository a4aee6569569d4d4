"""A roadmap keeps its interference table per radius, its hop distances per
goal, the plan validator's band table per radius and its roadmap-only
validation lines: solves that share a ``Roadmap`` object must give the plans
that fresh copies give, count only the bands and hop tables they add, and
leave nothing that keeps a dropped roadmap alive."""

from __future__ import annotations

import gc
import math
import weakref

import pytest

from helpers import plan_digest, toy_instance
from mapfla.harness import gen_preset, gen_scenario, instance_from_scenario
from mapfla import validator
from mapfla.model import Instance, Roadmap, make_roadmap, validate_roadmap
from mapfla.oracle import SOLVED, joint_bfs_solve
from mapfla.solver import SolverConfig, solve
from mapfla.validator import validate_plan

MODES = ("la", "naive")


def _copy(roadmap: Roadmap) -> Roadmap:
    return Roadmap(points=roadmap.points, edge_list=roadmap.edge_list)


def _outcome(instance: Instance, mode: str) -> tuple[str, str]:
    result = solve(instance, SolverConfig(mode, time_limit=60.0))
    return result.status, plan_digest(result.plan)


def _criterion_6_subset():
    """Criterion-6 cells, both modes, in an order that revisits n."""
    roadmap, radius = gen_preset("sparse-like", 0)
    scenarios = [gen_scenario(roadmap, 40, seed=s) for s in range(25)]
    return roadmap, radius, [
        (scen, n, mode)
        for n in (40, 2, 22, 9, 31)
        for scen in scenarios
        for mode in MODES
    ]


def test_shared_roadmap_gives_the_plans_of_fresh_copies_on_criterion_6():
    roadmap, radius, cells = _criterion_6_subset()
    shared = [
        _outcome(instance_from_scenario(roadmap, radius, scen, n), mode)
        for scen, n, mode in cells
    ]
    fresh = [
        _outcome(instance_from_scenario(_copy(roadmap), radius, scen, n), mode)
        for scen, n, mode in cells
    ]
    assert shared == fresh
    assert {status for status, _ in shared} >= {"solved", "failed"}


def test_a_second_radius_on_a_shared_roadmap_gets_its_own_table():
    roadmap, _ = gen_preset("sparse-like", 0)
    scen = gen_scenario(roadmap, 40, seed=3)
    cells = [(r, n) for n in (30, 12) for r in (0.48, 0.3)]
    shared = [
        _outcome(instance_from_scenario(roadmap, r, scen, n), "la") for r, n in cells
    ]
    fresh = [
        _outcome(instance_from_scenario(_copy(roadmap), r, scen, n), "la")
        for r, n in cells
    ]
    assert shared == fresh
    assert sorted(roadmap.interference_tables) == [0.3, 0.48]
    tables = roadmap.interference_tables
    for e, band in tables[0.48].items():
        if e in tables[0.3]:
            assert tables[0.3][e] <= band


@pytest.mark.parametrize("n_vertices, n_agents", [(12, 3), (16, 7)])
def test_shared_roadmap_gives_the_plans_of_fresh_copies_on_toys(n_vertices, n_agents):
    shared, fresh = [], []
    for seed in range(60):
        inst = toy_instance(seed, n_vertices, n_agents)
        # naive first, then la, then naive again on the filled table.
        order = ("naive", "la", "naive")
        shared += [_outcome(inst, mode) for mode in order]
        fresh += [
            _outcome(inst._replace(roadmap=_copy(inst.roadmap)), mode) for mode in order
        ]
    assert shared == fresh


def test_bands_computed_counts_only_the_bands_a_solve_adds():
    roadmap, radius, cells = _criterion_6_subset()
    counts = []
    for scen, n, mode in cells:
        inst = instance_from_scenario(roadmap, radius, scen, n)
        first = solve(inst, SolverConfig(mode))
        counts.append(first.stats.bands_computed)
        again = solve(inst, SolverConfig(mode))
        assert again.stats.bands_computed == 0
        assert (again.status, plan_digest(again.plan)) == (
            first.status,
            plan_digest(first.plan),
        )
    table = roadmap.interference_tables[radius]
    assert sum(counts) == len(table)
    assert counts[0] > 0 and 0 in counts[1:]


def test_the_info_line_names_the_bands_held_and_computed(caplog):
    roadmap, radius = gen_preset("sparse-like", 0)
    scen = gen_scenario(roadmap, 40, seed=0)
    caplog.set_level("INFO", logger="mapfla.solver")
    first = solve(instance_from_scenario(roadmap, radius, scen, 10))
    held = len(roadmap.interference_tables[radius])
    second = solve(instance_from_scenario(roadmap, radius, scen, 20))
    first_line, second_line = (r.getMessage() for r in caplog.records[-2:])
    assert first_line.endswith(
        f", 0 edge bands held from earlier solves, "
        f"{first.stats.bands_computed} of {roadmap.n_edges} edge bands computed"
    )
    assert second_line.endswith(
        f", {held} edge bands held from earlier solves, "
        f"{second.stats.bands_computed} of {roadmap.n_edges} edge bands computed"
    )


def test_goal_hops_are_kept_on_the_roadmap_and_counted_per_solve(caplog):
    roadmap, radius = gen_preset("sparse-like", 0)
    caplog.set_level("INFO", logger="mapfla.solver")
    counts = []
    for seed in range(4):
        scen = gen_scenario(roadmap, 40, seed=seed)
        for n, mode in ((12, "la"), (40, "naive"), (30, "la")):
            inst = instance_from_scenario(roadmap, radius, scen, n)
            first = solve(inst, SolverConfig(mode))
            counts.append(first.stats.hop_tables_computed)
            assert caplog.records[-1].getMessage().count(
                f", {counts[-1]} goal hop tables computed, "
            ) == 1
            kept = dict(roadmap.goal_hops)
            again = solve(inst, SolverConfig(mode))
            assert again.stats.hop_tables_computed == 0
            assert all(roadmap.goal_hops[g] is hops for g, hops in kept.items())
    assert sum(counts) == len(roadmap.goal_hops)
    assert counts[0] > 0 and 0 in counts[1:]
    fresh = _copy(roadmap)
    for goal in list(roadmap.goal_hops):
        assert roadmap.hops_to(goal) == fresh.hops_to(goal)


def test_goal_hops_leave_equality_hash_and_repr_alone():
    roadmap, radius = gen_preset("sparse-like", 0)
    copy = _copy(roadmap)
    before = repr(roadmap)
    solve(instance_from_scenario(roadmap, radius, gen_scenario(roadmap, 10, seed=0)))
    assert roadmap.goal_hops and not copy.goal_hops
    assert roadmap == copy and hash(roadmap) == hash(copy)
    assert repr(roadmap) == before == repr(copy)


def test_an_exhausted_goal_bfs_keeps_its_one_form_and_its_objects():
    # The path 0-1-2 and the edge 3-4: no search from 3 ever reaches 0.
    roadmap = make_roadmap([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 3.0), (1.0, 3.0)],
                           [(0, 1), (1, 2), (3, 4)])
    dist = roadmap.hops_to(0, 3)
    kept = roadmap.goal_hops[0]
    assert kept == ([0, 1, 2, 5, 5], [], 3) and kept[0] is dist
    assert roadmap.hops_to(0) is dist and roadmap.hops_to(0, 1) is dist
    assert roadmap.goal_hops[0] is kept
    result = solve(Instance(roadmap, 0.2, (3,), (0,)))
    assert result.status == "failed" and result.stats.hop_tables_computed == 0
    assert roadmap.goal_hops[0] is kept and kept[0] is dist
    assert kept == ([0, 1, 2, 5, 5], [], 3)


def test_an_unreferenced_roadmap_is_freed_without_the_cyclic_collector():
    roadmap, radius = gen_preset("dense-like", 1)
    scen = gen_scenario(roadmap, 6, seed=1)
    gc.disable()
    try:
        for r in (radius, 0.3):
            inst = instance_from_scenario(roadmap, r, scen)
            assert solve(inst).status == "solved"
        validate_roadmap(instance_from_scenario(roadmap, 0.2, scen))
        assert validate_plan(inst, solve(inst).plan).ok
        assert joint_bfs_solve(instance_from_scenario(roadmap, 0.3, scen, 2)).status == SOLVED
        assert len(roadmap.interference_tables) == 2 and roadmap.goal_hops
        assert sorted(roadmap.edge_bands) == [0.3]
        alive = weakref.ref(roadmap)
        del roadmap, inst
        assert alive() is None
    finally:
        gc.enable()


def _count_segdist(monkeypatch) -> list[None]:
    calls = []
    original = validator.segdist

    def spy(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(validator, "segdist", spy)
    return calls


def test_the_validators_band_table_is_kept_per_radius(monkeypatch):
    roadmap, radius = gen_preset("sparse-like", 0)
    scen = gen_scenario(roadmap, 40, seed=0)
    inst = instance_from_scenario(roadmap, radius, scen, 30)
    plan = solve(inst).plan
    assert roadmap.edge_bands == {}  # the solver never fills it
    assert validate_plan(inst, plan).ok
    table = roadmap.edge_bands[radius]
    held = len(table)
    assert held > 0
    tests = _count_segdist(monkeypatch)
    assert validate_plan(inst, plan).ok
    assert validate_plan(instance_from_scenario(roadmap, radius, scen, 30), plan).ok
    assert (roadmap.edge_bands[radius], len(table), tests) == (table, held, [])
    # Another radius gets its own table, and a fresh copy gives the same report.
    small = instance_from_scenario(roadmap, 0.3, scen, 30)
    assert validate_plan(small, plan) == validate_plan(small._replace(roadmap=_copy(roadmap)), plan)
    assert tests and sorted(roadmap.edge_bands) == [0.3, radius]
    assert roadmap.edge_bands[0.3] is not table and len(table) == held


def test_the_validator_and_the_oracle_share_a_table_and_leave_the_solvers_alone():
    grown = 0
    for seed in range(20):
        inst = toy_instance(seed, 12, 3)
        roadmap = inst.roadmap
        validate_plan(inst, [])
        table = roadmap.edge_bands[inst.radius]
        held = len(table)
        result = joint_bfs_solve(inst)
        grown += len(table) > held
        if result.status == SOLVED:
            assert validate_plan(inst, result.plan).ok
        assert roadmap.edge_bands == {inst.radius: table}
        assert roadmap.interference_tables == {}
    assert grown > 10


def _flawed_roadmap() -> Roadmap:
    """Close pairs at small and large radii, a non-finite vertex, a
    self-loop, a duplicate edge and an edge to a missing vertex."""
    return make_roadmap(
        [(0.0, 0.0), (0.9, 0.0), (2.0, 0.0), (math.inf, 1.0), (2.0, 1.3), (5.0, 5.0)],
        [(0, 1), (1, 1), (1, 0), (2, 9), (2, 4)],
    )


RADII = [0, 0.0, -1, math.nan, 0.4, 0.5, 1, 1.0, 0.7, 0.4]


def test_validate_roadmap_reports_are_equal_on_a_cache_miss_and_a_hit():
    shared = _flawed_roadmap()
    for starts, goals in (((0, 2), (1, 4)), ((0, 0), (7,))):
        for r in RADII:
            miss = validate_roadmap(Instance(_flawed_roadmap(), r, starts, goals))
            hit = validate_roadmap(Instance(shared, r, starts, goals))
            again = validate_roadmap(Instance(shared, r, starts, goals))
            assert miss == hit == again, r
    # Each report keeps its order: radius, vertices, edges, separation,
    # assignment.  Only radii that pass their own line reach the sweep.
    report = validate_roadmap(Instance(shared, 0.5, (0, 0), (7,)))
    assert report.issues == (
        "vertex 3 has non-finite coordinates (inf, 1.0)",
        "edge (1, 1) is a self-loop",
        "duplicate edge (0, 1)",
        "edge (2, 9) references a missing vertex",
        "vertices 0 and 1 are 0.9 apart; separation must exceed 2r = 1",
        "start vertex 0 assigned to agents 0 and 1",
        "goal of agent 0 is missing vertex 7",
        "2 starts but 1 goals",
    )
    for r in (0, -1, math.nan):
        report = validate_roadmap(Instance(shared, r, (0,), (1,)))
        assert report.issues == (
            f"agent radius must be a positive finite number, got {r!r}",
            "vertex 3 has non-finite coordinates (inf, 1.0)",
            "edge (1, 1) is a self-loop",
            "duplicate edge (0, 1)",
            "edge (2, 9) references a missing vertex",
        )
    assert validate_roadmap(Instance(shared, 0.7, (0,), (1,))).issues[-3:] == (
        "vertices 0 and 1 are 0.9 apart; separation must exceed 2r = 1.4",
        "vertices 1 and 2 are 1.1 apart; separation must exceed 2r = 1.4",
        "vertices 2 and 4 are 1.3 apart; separation must exceed 2r = 1.4",
    )
