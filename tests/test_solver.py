import logging
import math
import random
import re
import time
from functools import partial

import pytest

import mapfla.solver

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
from mapfla.fileio import dumps_plan
from mapfla.harness import gen_preset, gen_roadmap, gen_scenario, instance_from_scenario
from mapfla.model import Edge, Instance, edge_key, make_roadmap
from mapfla.oracle import SOLVED as ORACLE_SOLVED
from mapfla.oracle import joint_bfs_solve
from mapfla.solver import (
    FAILED,
    NAIVE,
    SOLVED,
    TIMEOUT,
    GraphView,
    InvalidInstanceError,
    SolverConfig,
    Workspace,
    _outer_push,
    lex_shortest_path,
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


def test_time_limit_and_elapsed_cover_setup(monkeypatch):
    build = mapfla.solver.interference_table

    def slow_build(*args):
        time.sleep(0.2)
        return build(*args)

    monkeypatch.setattr(mapfla.solver, "interference_table", slow_build)
    inst = chain_clear_instance()
    assert solve(inst, cfg(time_limit=0.1)).status == TIMEOUT
    result = solve(inst, cfg())
    assert result.status == SOLVED
    assert result.stats.elapsed >= 0.2


def test_stats_are_populated():
    inst = chain_clear_instance()
    result = solve(inst, cfg())
    assert result.stats.moves == len(result.plan)
    assert result.stats.move_la_calls > 0
    assert result.stats.attempts == 1
    assert result.stats.elapsed > 0


def test_a_dense_solve_computes_few_edge_bands(caplog):
    # The interference table computes a band on first use: a small solve on
    # a dense roadmap reads a few percent of them.
    roadmap, radius = gen_preset("dense-like", 0)
    inst = instance_from_scenario(roadmap, radius, gen_scenario(roadmap, 4, seed=0))
    caplog.set_level(logging.INFO, logger="mapfla.solver")
    result = solve(inst, cfg())
    assert result.status == SOLVED
    assert 0 < result.stats.bands_computed < 0.1 * roadmap.n_edges
    assert caplog.records[-1].getMessage().endswith(
        f", {result.stats.bands_computed} of {roadmap.n_edges} edge bands computed"
    )


# Rounds the copy below ran from a state an earlier round of the same pass
# started from, one entry per round.
_repeated_rounds: list[int] = []


def _plan_agent_without_fast_forward(
    ws: Workspace,
    base: GraphView,
    agent: int,
    locked: dict[int, int],
) -> bool:
    """The outer loop's per-agent planner as it was before rounds that repeat
    a state were fast-forwarded: every round up to ``round_cap`` is run.
    Only the lines that fill ``_repeated_rounds`` are new."""
    goal = ws.instance.goals[agent]
    round_cap = 4 * ws.instance.roadmap.n_vertices + 16
    for disturb in (False, True):
        banned: set[Edge] = set()
        rounds = 0
        seen = set()
        while ws.pos[agent] != goal and rounds < round_cap:
            key = (tuple(ws.pos), frozenset(banned))
            if key in seen:
                _repeated_rounds.append(agent)
            seen.add(key)
            rounds += 1
            ws.check_time()
            hard = (
                frozenset() if disturb else frozenset(ws.pos[a] for a in locked)
            )
            view = base.without(frozenset(banned)) if banned else base
            path = lex_shortest_path(view, ws.pos[agent], goal, hard)
            if path is None:
                break
            advanced = False
            banned_now = False
            for i in range(len(path) - 1):
                u, v = path[i], path[i + 1]
                if ws.pos[agent] != u:
                    break  # a push shoved this agent aside; replan from there
                if v in ws.at:
                    protect = frozenset(path[i + 1 :])
                    if not _outer_push(ws, base, v, u, protect, locked, disturb):
                        banned.add(edge_key(u, v))
                        banned_now = True
                        break
                    advanced = True  # occupancy changed even if the mover moved back
                    if ws.pos[agent] != u or v in ws.at:
                        break
                if not ws.step(base, u, v, frozenset(), 1):
                    banned.add(edge_key(u, v))
                    banned_now = True
                    break
                advanced = True
            if ws.pos[agent] == goal:
                return True
            if advanced:
                banned.clear()
            elif not banned_now:
                break
        if ws.pos[agent] == goal:
            return True
    return False


def _toy_instance(toy_seed):
    """The benchmark's 12-vertex, 3-agent toy drawn from ``toy_seed``."""
    rng = random.Random(toy_seed)
    side = math.sqrt(12 * math.pi * 0.25 / 0.3)
    rm = gen_roadmap(12, 3.4, 1.0, (side, side), seed=rng.randrange(2**31))
    k = min(3, rm.n_vertices - 2)
    return Instance(
        roadmap=rm,
        radius=rng.uniform(0.3, 0.49),
        starts=tuple(rng.sample(range(rm.n_vertices), k)),
        goals=tuple(rng.sample(range(rm.n_vertices), k)),
    )


def _sparse_instance(scenario, n):
    rm, radius = gen_preset("sparse-like", 0)
    sc = gen_scenario(rm, 40, seed=scenario, name="sparse-like")
    return instance_from_scenario(rm, radius, sc, n)


_CYCLING_CASES = [
    *[
        pytest.param(partial(_toy_instance, s), mode, FAILED, id=f"toy-{s}-{mode}")
        for s in (24, 51, 88, 93, 450, 567)
        for mode in ("la", "naive")
    ],
    # 3135 moves: one agent's first pass repeats one state for 642 rounds.
    pytest.param(partial(_sparse_instance, 15, 40), "la", SOLVED, id="sparse-15-n40"),
    pytest.param(partial(_sparse_instance, 16, 40), "la", FAILED, id="sparse-16-n40"),
]


@pytest.mark.parametrize("build, mode, status", _CYCLING_CASES)
def test_fast_forward_gives_the_plans_of_every_round_run(monkeypatch, build, mode, status):
    inst = build()
    fast = solve(inst, cfg(mode=mode))
    assert fast.stats.rounds_skipped > 0  # a cycle was skipped, not run
    monkeypatch.setattr(mapfla.solver, "_plan_agent", _plan_agent_without_fast_forward)
    _repeated_rounds.clear()
    slow = solve(inst, cfg(mode=mode))
    assert slow.stats.rounds_skipped == 0
    assert fast.status == slow.status == status
    assert dumps_plan(fast.plan or []) == dumps_plan(slow.plan or [])
    # Every cycle here has period 1, so every repeated round is skipped: a
    # skip one cycle short would be made up by running that cycle.
    assert fast.stats.rounds_skipped == len(_repeated_rounds)
    if mode != NAIVE:  # naive makes no move_la call
        assert fast.stats.move_la_calls < slow.stats.move_la_calls


def test_fast_forward_is_logged_and_counted_across_attempts(caplog):
    caplog.set_level(logging.DEBUG, logger="mapfla.solver")
    result = solve(_toy_instance(51), cfg(order="random-restarts:3:1"))
    assert result.status == FAILED
    assert result.stats.attempts == 3
    pattern = re.compile(r"agent \d+ at vertex \d+: period-(\d+) cycle, (\d+) rounds skipped")
    skips = [pattern.fullmatch(r.getMessage()) for r in caplog.records]
    skips = [(int(m[1]), int(m[2])) for m in skips if m is not None]
    assert len(skips) >= 3  # at least one per attempt
    assert sum(n for _, n in skips) == result.stats.rounds_skipped
    assert all(n % period == 0 for period, n in skips)
