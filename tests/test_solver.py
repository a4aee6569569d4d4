import logging

import pytest

from helpers import (
    case3_instance,
    chain_clear_instance,
    fuzz_instance,
    interference_free_instance,
    ordering_instance,
    replay,
    star_instance,
    tiny_instance,
)
from mapfla.model import Instance, make_roadmap
from mapfla.oracle import SOLVED as ORACLE_SOLVED
from mapfla.oracle import joint_bfs_solve
from mapfla.solver import (
    FAILED,
    NAIVE,
    SOLVED,
    TIMEOUT,
    InvalidInstanceError,
    SolverConfig,
    solve,
)
from mapfla.validator import validate_plan


def cfg(**kw):
    kw.setdefault("time_limit", 10.0)
    return SolverConfig(**kw)


def test_single_agent_gets_simple_shortest_path():
    rm = make_roadmap([(1.2 * i, 0) for i in range(5)], [(i, i + 1) for i in range(4)])
    inst = Instance(roadmap=rm, radius=0.5, starts=(0,), goals=(4,))
    result = solve(inst, cfg())
    assert result.status == SOLVED
    assert validate_plan(inst, result.plan).ok
    visited = [inst.starts[0]] + [m.dst for m in result.plan]
    assert len(set(visited)) == len(visited)  # simple path
    oracle = joint_bfs_solve(inst)
    assert oracle.status == ORACLE_SOLVED
    assert len(result.plan) == len(oracle.plan)


def test_start_equals_goal_yields_empty_plan():
    rm = make_roadmap([(0, 0), (2, 0)], [(0, 1)])
    inst = Instance(roadmap=rm, radius=0.3, starts=(0, 1), goals=(0, 1))
    result = solve(inst, cfg())
    assert result.status == SOLVED
    assert result.plan == []


def test_star_fixture_fails_quickly():
    result = solve(star_instance(), cfg(time_limit=1.0))
    assert result.status == FAILED
    assert result.stats.elapsed < 1.0
    assert result.stats.case3_failures > 0


def test_ordering_fixture_index_order_fails():
    result = solve(ordering_instance(), cfg(order="index"))
    assert result.status == FAILED
    assert result.stats.case3_failures > 0


def test_ordering_fixture_reversed_order_solves():
    inst = ordering_instance()
    result = solve(inst, cfg(order=(1, 0)))
    assert result.status == SOLVED
    assert validate_plan(inst, result.plan).ok


def test_ordering_fixture_restarts_recover():
    inst = ordering_instance()
    result = solve(inst, cfg(order="random-restarts:10:1"))
    assert result.status == SOLVED
    assert result.stats.attempts >= 2
    assert validate_plan(inst, result.plan).ok


def test_la_clears_where_naive_halts():
    inst = chain_clear_instance()
    la = solve(inst, cfg())
    naive = solve(inst, cfg(mode=NAIVE))
    assert la.status == SOLVED
    assert validate_plan(inst, la.plan).ok
    assert naive.status == FAILED


def test_modes_identical_without_interference():
    for seed in range(25):
        inst = interference_free_instance(seed)
        la = solve(inst, cfg())
        naive = solve(inst, cfg(mode=NAIVE))
        assert la.status == naive.status
        if la.status == SOLVED:
            assert la.plan == naive.plan


def test_case3_instance_still_solvable_by_outer_replanning():
    # the solver cannot clear the interference, but banning the edge and
    # routing around it (via vertex 4 there is no route) must not crash
    result = solve(case3_instance(), cfg())
    assert result.status in (SOLVED, FAILED)
    if result.status == SOLVED:
        assert validate_plan(case3_instance(), result.plan).ok


def test_trace_log_names_the_uncleared_edge_and_the_given_up_agent(caplog):
    # Agent 0 on vertex 0 needs edge (0, 1); agent 1 on vertex 2 interferes
    # and can escape only through vertex 1.
    caplog.set_level(logging.DEBUG, logger="mapfla.solver")
    assert solve(case3_instance(), cfg()).status == FAILED
    debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert "edge (0, 1): vertices [2] not cleared" in debug
    assert debug[-1] == "agent 0 given up at vertex 0, goal 1"


def test_solved_plans_validate_fuzz():
    solved = 0
    for seed in range(120):
        inst = fuzz_instance(seed, max_vertices=40, max_agents=8)
        for mode in ("la", "naive"):
            result = solve(inst, cfg(mode=mode, time_limit=5.0))
            if result.status == SOLVED:
                solved += 1
                assert validate_plan(inst, result.plan).ok
                assert replay(inst, result.plan).positions == inst.goals
    assert solved > 60


def test_solver_never_beats_oracle():
    for seed in range(80):
        inst = tiny_instance(seed)
        result = solve(inst, cfg(time_limit=5.0))
        if result.status == SOLVED:
            assert joint_bfs_solve(inst, node_budget=500_000).status == ORACLE_SOLVED


def test_deterministic_given_config():
    inst = fuzz_instance(7)
    a = solve(inst, cfg())
    b = solve(inst, cfg())
    assert a.status == b.status
    assert a.plan == b.plan


def test_invalid_instance_rejected_before_search():
    rm = make_roadmap([(0, 0), (0.5, 0)], [(0, 1)])  # closer than 2r
    inst = Instance(roadmap=rm, radius=0.5, starts=(0,), goals=(1,))
    with pytest.raises(InvalidInstanceError):
        solve(inst, cfg())


def test_config_validation():
    inst = ordering_instance()
    with pytest.raises(ValueError):
        solve(inst, cfg(mode="fancy"))
    with pytest.raises(ValueError):
        solve(inst, SolverConfig(time_limit=0))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            solve(inst, SolverConfig(time_limit=bad))
    with pytest.raises(ValueError):
        solve(inst, cfg(order=(0, 0)))
    with pytest.raises(ValueError):
        solve(inst, cfg(order="sideways"))


def test_timeout_status():
    inst = fuzz_instance(3, max_vertices=60, max_agents=10)
    result = solve(inst, cfg(time_limit=1e-9))
    assert result.status == TIMEOUT
    assert result.plan is None


def test_stats_are_populated():
    inst = chain_clear_instance()
    result = solve(inst, cfg())
    assert result.stats.moves == len(result.plan)
    assert result.stats.move_la_calls > 0
    assert result.stats.attempts == 1
    assert result.stats.elapsed > 0
