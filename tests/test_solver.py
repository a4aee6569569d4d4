import hashlib
import logging
import math
import re
import sys
import time
from functools import partial

import pytest

import mapfla.solver
from mapfla import fileio

from helpers import (
    case3_instance,
    chain_clear_instance,
    fuzz_instance,
    interference_free_instance,
    ordering_instance,
    plan_digest,
    replay,
    star_instance,
    tiny_instance,
    toy_instance,
)
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
    _orderings,
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


@pytest.mark.parametrize(
    "order, message",
    [
        ("random-restarts:3", "malformed order spec 'random-restarts:3'"),
        ("random-restarts:0:1", "restart count must be >= 1"),
    ],
    ids=["malformed", "zero-restarts"],
)
def test_a_bad_restart_spec_is_rejected(order, message):
    with pytest.raises(ValueError) as raised:
        solve(ordering_instance(), cfg(order=order))
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "count, seed, k, want",
    [
        (4, 0, 3, 3),  # the second shuffle repeats the first: 3 orderings, not 4
        (3, 5, 2, 1),  # both shuffles give the identity back
        (8, 1, 3, 4),
        (30, 2, 4, 17),
        (50, 0, 3, 6),  # every ordering, then no more shuffles
        (1, 7, 5, 1),
    ],
    ids=["repeat-skipped", "only-repeats", "k3", "k4", "all-of-k3", "identity-only"],
)
def test_restarts_yield_distinct_orderings_identity_first(count, seed, k, want):
    orders = list(_orderings(cfg(order=f"random-restarts:{count}:{seed}"), k))
    assert orders[0] == tuple(range(k))
    assert all(sorted(order) == list(range(k)) for order in orders)
    assert len(set(orders)) == len(orders) == want
    assert want <= min(count, math.factorial(k))


def test_restarts_stop_once_every_ordering_was_tried():
    # Two agents have 2! = 2 orderings.  Agent 0's goal lies off the only
    # edge, so both fail; the generator used to keep shuffling for the rest
    # of the count, about 2 s past a 0.2 s limit.
    rm = make_roadmap([(0.0, 0.0), (1.2, 0.0), (6.0, 6.0)], [(0, 1)])
    inst = Instance(rm, 0.3, (0, 1), (2, 0))
    t0 = time.monotonic()
    result = solve(inst, cfg(order="random-restarts:3000000:1", time_limit=0.2))
    assert time.monotonic() - t0 < 0.5
    assert result.status == FAILED
    assert result.stats.attempts == 2


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
    assert "edge (0, 1): vertex 2 not cleared" in debug
    assert debug[-1] == "agent 0 given up at vertex 0, goal 1"
    origin = {r.getMessage(): r.funcName for r in caplog.records}
    assert origin["edge (0, 1): vertex 2 not cleared"] == "reversable_edge_cleaning"
    assert origin[debug[-1]] == "_plan_agent"
    assert caplog.records[-1].funcName == "finish"
    assert {r.filename for r in caplog.records} == {"solver.py"}


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


@pytest.mark.parametrize(
    "order, want",
    [
        ("index", (0, 1, 2)),
        ("perm:0,1,2", (0, 1, 2)),
        ((0, 1, 2), (0, 1, 2)),
        ([0, 1, 2], (0, 1, 2)),
        ("perm:2,0,1", (2, 0, 1)),
    ],
)
def test_a_fixed_order_yields_its_one_ordering(order, want):
    assert list(_orderings(cfg(order=order), 3)) == [want]


@pytest.mark.parametrize(
    "order, message",
    [("sideways", "unknown order spec 'sideways'"), ((0, 0), "(0, 0) is not a permutation of 0..1")],
)
def test_bad_order_specs_give_their_messages(order, message):
    with pytest.raises(ValueError) as err:
        list(_orderings(cfg(order=order), 2))
    assert str(err.value) == message


def test_timeout_status():
    inst = fuzz_instance(3, max_vertices=60, max_agents=10)
    result = solve(inst, cfg(time_limit=1e-9))
    assert result.status == TIMEOUT
    assert result.plan is None


def test_time_limit_and_elapsed_cover_setup(monkeypatch):
    build = mapfla.solver.InterferenceCache
    builds = []

    def slow_build(*args):
        builds.append(args)
        time.sleep(0.2)
        return build(*args)

    monkeypatch.setattr(mapfla.solver, "InterferenceCache", slow_build)
    inst = chain_clear_instance()
    assert solve(inst, cfg(time_limit=0.1)).status == TIMEOUT
    # A fresh roadmap has no table yet, so this solve builds one.
    result = solve(chain_clear_instance(), cfg())
    assert result.status == SOLVED
    assert result.stats.elapsed >= 0.2
    assert len(builds) == 2
    # The first roadmap kept the table its timed-out solve built.
    assert solve(inst, cfg()).status == SOLVED
    assert len(builds) == 2


def test_stats_are_populated():
    inst = chain_clear_instance()
    result = solve(inst, cfg())
    assert result.stats.moves == len(result.plan)
    assert result.stats.move_la_calls > 0
    assert result.stats.attempts == 1
    assert result.stats.elapsed > 0


@pytest.mark.parametrize(
    "toy, move_la_calls, case3_failures",
    [((51,), 25, 0), ((90, 12, 5), 95, 13)],
)
def test_restart_counters_are_the_sums_over_the_orderings_tried(
    toy, move_la_calls, case3_failures
):
    """One workspace serves every ordering of a solve, rolled back to the
    starts between them, so a solve whose orderings all fail counts what
    solving each of them alone counts, summed."""
    inst = toy_instance(*toy)
    config = cfg(order="random-restarts:3:1")
    result = solve(inst, config)
    alone = [
        solve(inst, cfg(order="perm:" + ",".join(map(str, order)))).stats
        for order in _orderings(config, inst.n_agents)
    ]
    assert result.status == FAILED
    assert result.stats.attempts == len(alone) == 3
    assert result.stats.move_la_calls == sum(s.move_la_calls for s in alone) == move_la_calls
    assert (
        result.stats.case3_failures
        == sum(s.case3_failures for s in alone)
        == case3_failures
    )


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


def test_a_dense_solve_that_pushes_computes_only_the_bands_it_reaches(monkeypatch):
    # A push must avoid every edge near the traversal target.  When the mask
    # came from a vertex-to-edges map, the first push completed the table:
    # this solve computed all 1,200 bands for one push.  The plan's SHA-256
    # is the one it had then.
    roadmap, radius = gen_preset("dense-like", 1)
    scenario = gen_scenario(roadmap, 6, seed=1, name="dense-like")
    inst = instance_from_scenario(roadmap, radius, scenario)
    pushes = []
    push_to_empty = Workspace.push_to_empty

    def counted(self, *args):
        pushes.append(args[1])
        return push_to_empty(self, *args)

    monkeypatch.setattr(Workspace, "push_to_empty", counted)
    result = solve(inst, cfg())
    assert result.status == SOLVED
    assert pushes
    assert hashlib.sha256(fileio.dumps_plan(result.plan).encode()).hexdigest() == (
        "e67e0ee9a23f6e1ebc428755e9fbc84f1f76344c99b61dd16c4334cd1ccabee1"
    )
    assert result.stats.bands_computed < roadmap.n_edges


@pytest.mark.parametrize("n", [2, 4, 6])
def test_a_push_stops_searching_targets_its_masked_view_cannot_reach(n):
    # Here pushes fail and mask an edge.  Searching the masked view afresh for
    # every later target, and growing the unmasked target search to its end,
    # computed all 1,200 bands; one search per masked view computes 21 to 49.
    roadmap, radius = gen_preset("dense-like", 4)
    inst = instance_from_scenario(roadmap, radius, gen_scenario(roadmap, n, seed=4))
    result = solve(inst, cfg())
    assert result.status == SOLVED
    assert result.stats.bands_computed < roadmap.n_edges // 10


def _plan_agent_every_round(
    ws: Workspace,
    base: GraphView,
    agent: int,
    locked_goals: frozenset[int],
) -> bool:
    """The outer loop's per-agent planner as it was before cycles were cut:
    a round that repeats an earlier round's state is run again, up to
    ``4·|V| + 16`` rounds per pass."""
    goal = ws.instance.goals[agent]
    round_cap = 4 * ws.instance.roadmap.n_vertices + 16
    for hard in (locked_goals, frozenset()):
        banned: set[Edge] = set()
        rounds = 0
        while ws.pos[agent] != goal and rounds < round_cap:
            rounds += 1
            ws.check_time()
            path = lex_shortest_path(base.without(banned), ws.pos[agent], goal, hard)
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
                    if not _outer_push(ws, base, v, u, protect, hard):
                        banned.add(edge_key(u, v))
                        banned_now = True
                        break
                    advanced = True  # occupancy changed even if the mover moved back
                    if ws.pos[agent] != u or v in ws.at:
                        break
                if not ws.step(base, u, v):
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


@pytest.mark.parametrize(
    "toy_seed, digest",
    [
        pytest.param(95, "23904b12be906687c05a087e6fad11355491742b3a62f48a94a226f3f662cc67", id="95"),
        pytest.param(145, "f768c98bf5cfb125864474a40aab107de3d52a50dec9498fee84c876fecc4d2c", id="145"),
    ],
)
def test_sidestep_escape_from_the_unmasked_view_keeps_crowded_toy_plans(toy_seed, digest):
    """In these 16-vertex, 9-agent toys a sidestep's escape push succeeded
    where the view it searched still held the edges masked by the push that
    cleared the sidestep vertex.  The escape now searches the view without
    those masks; the plan stays the same."""
    result = solve(toy_instance(toy_seed, 16, 9), cfg())
    assert result.status == SOLVED
    assert plan_digest(result.plan) == digest


def _sparse_instance(scenario, n):
    rm, radius = gen_preset("sparse-like", 0)
    sc = gen_scenario(rm, 40, seed=scenario, name="sparse-like")
    return instance_from_scenario(rm, radius, sc, n)


# Instance, mode, status and the solved plan's length.
_CYCLING_CASES = [
    *[
        pytest.param(partial(toy_instance, s), mode, FAILED, None, id=f"toy-{s}-{mode}")
        for s in (24, 51, 88, 93, 450, 567)
        for mode in ("la", "naive")
    ],
    # Every round run: 3135 moves, one agent's first pass repeating a 4-move
    # round 643 times.
    pytest.param(partial(_sparse_instance, 15, 40), "la", SOLVED, 563, id="sparse-15-n40"),
    pytest.param(partial(_sparse_instance, 16, 40), "la", FAILED, None, id="sparse-16-n40"),
]


def _attempt_plans(monkeypatch) -> list[list]:
    """Record every attempt's plan as it stands when the attempt ends."""
    plans = []
    single_order = mapfla.solver._solve_single_order

    def recording(ws, order):
        try:
            return single_order(ws, order)
        finally:
            plans.append(list(ws.plan))

    monkeypatch.setattr(mapfla.solver, "_solve_single_order", recording)
    return plans


def _cut_blocks(instance, reference, plan) -> list[tuple[int, int]]:
    """The ``(start, end)`` spans of ``reference`` whose removal leaves
    ``plan``, each ending in the positions it starts from.  Raises when
    ``plan`` is not ``reference`` with such spans removed."""
    positions = [tuple(instance.starts)]
    pos = list(instance.starts)
    for m in reference:
        pos[m.agent] = m.dst
        positions.append(tuple(pos))
    blocks = []
    i = 0
    for move in plan:
        if reference[i] != move:
            end = next(
                e
                for e in range(i + 1, len(reference))
                if positions[e] == positions[i] and reference[e] == move
            )
            blocks.append((i, end))
            i = end
        i += 1
    if i < len(reference):
        assert positions[-1] == positions[i]
        blocks.append((i, len(reference)))
    return blocks


@pytest.mark.parametrize("build, mode, status, moves", _CYCLING_CASES)
def test_fast_forward_gives_the_plans_of_every_round_run(
    monkeypatch, build, mode, status, moves
):
    """Named for the fast-forward that the cycle cut replaced.  Each
    attempt's plan is the plan of running every round with net-zero blocks
    cut out, and the status is the same."""
    inst = build()
    plans = _attempt_plans(monkeypatch)
    cut = solve(inst, cfg(mode=mode))
    cut_plans = list(plans)
    monkeypatch.setattr(mapfla.solver, "_plan_agent", _plan_agent_every_round)
    plans.clear()
    every = solve(inst, cfg(mode=mode))
    assert cut.status == every.status == status
    assert len(cut_plans) == len(plans)
    for plan, reference in zip(cut_plans, plans):
        assert _cut_blocks(inst, reference, plan)  # a cycle was cut
    if status == SOLVED:
        assert cut.plan == cut_plans[-1] and every.plan == plans[-1]
        assert len(cut.plan) == moves
        assert validate_plan(inst, cut.plan).ok
    if mode != NAIVE:  # naive makes no move_la call
        assert cut.stats.move_la_calls < every.stats.move_la_calls


def test_each_cycle_cut_is_logged_once(monkeypatch, caplog):
    # Each attempt's cuts as (agent, its vertex, moves dropped); a cut is the
    # only rollback that ``_plan_agent`` itself makes.
    attempts: list[list[tuple[int, int, int]]] = []
    single_order = mapfla.solver._solve_single_order
    rollback = Workspace.rollback

    def attempt(ws, order):
        attempts.append([])
        return single_order(ws, order)

    def recording_rollback(ws, mark):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_plan_agent":
            agent = caller.f_locals["agent"]
            attempts[-1].append((agent, ws.pos[agent], len(ws.plan) - mark))
        rollback(ws, mark)

    monkeypatch.setattr(mapfla.solver, "_solve_single_order", attempt)
    monkeypatch.setattr(Workspace, "rollback", recording_rollback)
    caplog.set_level(logging.DEBUG, logger="mapfla.solver")
    result = solve(toy_instance(51), cfg(order="random-restarts:3:1"))
    assert result.status == FAILED
    assert result.stats.attempts == len(attempts) == 3
    assert all(attempts)  # one cut or more in each attempt
    pattern = re.compile(r"agent (\d+) at vertex (\d+): cycle cut, (\d+) moves dropped")
    logged = [pattern.fullmatch(r.getMessage()) for r in caplog.records]
    cuts = [tuple(map(int, m.groups())) for m in logged if m is not None]
    assert cuts == [cut for found in attempts for cut in found]
    assert all(dropped > 0 for _, _, dropped in cuts)
    assert {(r.funcName, r.filename) for r, m in zip(caplog.records, logged) if m} == {
        ("_plan_agent", "solver.py")
    }


@pytest.mark.parametrize("mode", ["la", "naive"])
def test_move_la_calls_counts_the_calls_of_move_la(monkeypatch, mode):
    """``stats.move_la_calls`` is the number of ``Workspace.move_la`` calls:
    a free step of the outer loop is a plain checked move, not counted."""
    calls = []
    move_la = Workspace.move_la

    def counted(ws, *args):
        calls.append(args)
        return move_la(ws, *args)

    monkeypatch.setattr(Workspace, "move_la", counted)
    roadmap, radius = gen_preset("sparse-like", 0)
    counts = []
    for i in range(25):
        scenario = gen_scenario(roadmap, 20, seed=i, name="sparse-like")
        inst = instance_from_scenario(roadmap, radius, scenario, 20)
        before = len(calls)
        counts.append((solve(inst, cfg(mode=mode)).stats.move_la_calls, len(calls) - before))
    assert all(stat == seen for stat, seen in counts)
    assert (sum(stat for stat, _ in counts) > 0) == (mode == "la")


def test_a_repeated_outer_loop_state_fails_the_ordering_once_logged(caplog):
    # Agents push each other off their goals forever on this toy.  A cap of
    # 4·K + 8 re-queues used to end the cycle after 127 move-la calls.
    caplog.set_level(logging.DEBUG, logger="mapfla.solver")
    result = solve(toy_instance(143, 12, 5), cfg(mode="la"))
    assert result.status == FAILED
    pattern = re.compile(r"outer loop state repeated: agents \[[\d, ]+\] re-queued")
    repeated = [r for r in caplog.records if pattern.fullmatch(r.getMessage())]
    assert len(repeated) == 1
    assert (repeated[0].funcName, repeated[0].filename) == ("_solve_single_order", "solver.py")
    assert result.stats.move_la_calls < 127


@pytest.mark.parametrize("mode", ["la", "naive"])
def test_outer_push_gets_the_locked_agents_vertices_as_hard(monkeypatch, mode):
    """``_plan_agent`` is given the locked agents' goals once per call and
    blocks them for its whole first pass, and ``_outer_push`` trusts them.
    That holds because no move made during the first pass leaves a locked
    agent off its goal: every call sees either an empty ``hard`` in the
    second pass, or the vertices the locked agents stand on now, each
    holding the agent whose goal it is."""
    plan_agent, outer_push = mapfla.solver._plan_agent, mapfla.solver._outer_push
    locked_now: list[dict[int, int]] = []
    seen = {"first pass, agents locked": 0, "second pass, agents locked": 0}

    def planning(ws, base, agent, locked_goals):
        locked = sys._getframe(1).f_locals["locked"]
        assert locked_goals == frozenset(locked.values())
        locked_now.append(locked)
        try:
            return plan_agent(ws, base, agent, locked_goals)
        finally:
            locked_now.pop()

    def pushing(ws, base, head, mover_vertex, protect, hard):
        locked = locked_now[-1]
        goals = ws.instance.goals
        assert all(v in ws.at and goals[ws.at[v]] == v for v in hard)
        if hard:
            assert hard == frozenset(ws.pos[a] for a in locked)
            seen["first pass, agents locked"] += 1
        else:
            seen["second pass, agents locked"] += bool(locked)
        return outer_push(ws, base, head, mover_vertex, protect, hard)

    monkeypatch.setattr(mapfla.solver, "_plan_agent", planning)
    monkeypatch.setattr(mapfla.solver, "_outer_push", pushing)
    roadmap, radius = gen_preset("sparse-like", 0)
    for i in range(25):
        scenario = gen_scenario(roadmap, 40, seed=i, name="sparse-like")
        solve(instance_from_scenario(roadmap, radius, scenario, 40), cfg(mode=mode))
    assert all(seen.values()), seen
