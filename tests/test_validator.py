import ast
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fuzz_instance, ordering_instance, tiny_instance
from mapfla.geometry import clearance_threshold, segdist
from mapfla.model import (
    Instance,
    Move,
    Roadmap,
    State,
    apply_move,
    assignment_issues,
    edge_key,
    make_roadmap,
    validate_roadmap,
)
from mapfla.oracle import SOLVED, UNSOLVABLE, joint_bfs_solve
from mapfla import validator
from mapfla.validator import PlanReport, is_valid_transition, validate_plan


def line_instance(starts, goals, r=0.3, n=4):
    rm = make_roadmap([(1.2 * i, 0) for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    return Instance(roadmap=rm, radius=r, starts=starts, goals=goals)


def test_lone_agent_any_edge_is_valid():
    inst = line_instance((0,), (3,))
    state = State((0,))
    assert is_valid_transition(state, Move(0, 0, 1), inst)


def test_occupied_interfering_vertex_blocks():
    # blue on vertex 2 sits within 2r of the (0, 1) segment
    rm = make_roadmap([(0, 0), (1.2, 0), (0.6, 0.9)], [(0, 1), (1, 2)])
    inst = Instance(roadmap=rm, radius=0.5, starts=(0, 2), goals=(1, 2))
    assert not is_valid_transition(State((0, 2)), Move(0, 0, 1), inst)


def test_relocated_interferer_unblocks():
    rm = make_roadmap(
        [(0, 0), (1.2, 0), (0.6, 0.9), (0.6, 2.1)], [(0, 1), (2, 3)]
    )
    inst = Instance(roadmap=rm, radius=0.5, starts=(0, 2), goals=(1, 2))
    assert not is_valid_transition(State((0, 2)), Move(0, 0, 1), inst)
    assert is_valid_transition(State((0, 3)), Move(0, 0, 1), inst)


def test_missing_edge_and_occupied_target_invalid():
    inst = line_instance((0, 1), (0, 1))
    assert not is_valid_transition(State((0, 1)), Move(0, 0, 2), inst)
    assert not is_valid_transition(State((0, 1)), Move(0, 0, 1), inst)
    assert not is_valid_transition(State((0, 1)), Move(1, 0, 1), inst)


def test_empty_plan_ok_when_start_is_goal():
    inst = line_instance((0, 2), (0, 2))
    assert validate_plan(inst, []).ok


def test_goal_not_reached_reported():
    inst = line_instance((0,), (2,))
    plan = [Move(0, 0, 1), Move(0, 1, 2)]
    assert validate_plan(inst, plan).ok
    report = validate_plan(inst, plan[:-1])
    assert not report.ok
    assert report.failed_index == 1
    assert "goal not reached" in report.reason


def test_first_failure_reported_with_index():
    inst = line_instance((0,), (2,))
    report = validate_plan(inst, [Move(0, 1, 2)])
    assert not report.ok
    assert report.failed_index == 0
    assert "not 1" in report.reason


def test_a_move_of_an_agent_not_in_the_instance_is_reported():
    inst = line_instance((0,), (2,))
    assert validate_plan(inst, [Move(5, 0, 1)]) == PlanReport(
        ok=False, failed_index=0, reason="move 0: no agent 5"
    )


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_validity_monotone_in_radius(seed):
    # a transition valid at radius r stays valid at any smaller radius
    rng = random.Random(seed)
    inst = tiny_instance(seed)
    state = State(inst.starts)
    agent = rng.randrange(inst.n_agents)
    u = state.positions[agent]
    nbrs = inst.roadmap.adjacency[u]
    if not nbrs:
        return
    move = Move(agent, u, rng.choice(nbrs))
    if is_valid_transition(state, move, inst):
        smaller = Instance(inst.roadmap, inst.radius * rng.uniform(0.1, 0.999),
                           inst.starts, inst.goals)
        assert is_valid_transition(state, move, smaller)


def test_oracle_plan_mutation_always_caught():
    # deleting any single move from a minimal plan must fail validation
    checked = 0
    for seed in range(60):
        inst = tiny_instance(seed)
        result = joint_bfs_solve(inst, node_budget=100_000)
        if result.status != SOLVED or not result.plan:
            continue
        assert validate_plan(inst, result.plan).ok
        for i in range(len(result.plan)):
            mutated = result.plan[:i] + result.plan[i + 1 :]
            assert not validate_plan(inst, mutated).ok
            checked += 1
    assert checked > 50


def test_ordering_fixture_oracle_plan_validates():
    inst = ordering_instance()
    result = joint_bfs_solve(inst)
    assert result.status == SOLVED
    assert validate_plan(inst, result.plan).ok


def test_validator_is_independent_of_the_solver():
    """The validator is the arbiter of solver plans, so it must neither
    import the solver nor reuse its interference cache."""
    tree = ast.parse(Path(validator.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {
        "solver", "InterferenceCache", "interference_table", "interference_tables",
        "_band_test",
    }


def _assert_invalid_instance(report):
    assert not report.ok
    assert report.failed_index == 0
    assert report.reason.startswith("invalid instance:")


def test_vertex_off_the_roadmap_is_an_invalid_instance():
    _assert_invalid_instance(validate_plan(line_instance((-1,), (-1,), n=3), []))
    _assert_invalid_instance(validate_plan(line_instance((0,), (3,), n=3), [Move(0, 0, 1)]))


def test_two_agents_on_one_vertex_is_an_invalid_instance():
    _assert_invalid_instance(validate_plan(line_instance((0, 0), (0, 0), n=3), []))
    report = validate_plan(line_instance((0, 1), (2, 2), n=3), [Move(1, 1, 2)])
    _assert_invalid_instance(report)


def test_start_goal_count_mismatch_is_an_invalid_instance():
    _assert_invalid_instance(validate_plan(line_instance((0, 1), (0,), n=3), []))
    _assert_invalid_instance(validate_plan(line_instance((0,), (0, 1), n=3), []))


@pytest.mark.parametrize("r", [math.nan, -1.0, 0.0, 0, math.inf, "0.5"])
def test_a_radius_that_is_not_positive_and_finite_is_an_invalid_instance(r):
    # Vertex 2 lies 0.1 from edge (0, 1), so any positive radius blocks the move.
    rm = make_roadmap([(0, 0), (1, 0), (0.5, 0.1), (2, 0)], [(0, 1), (1, 3), (2, 1)])
    inst = Instance(roadmap=rm, radius=r, starts=(0, 2), goals=(1, 2))
    line = f"agent radius must be a positive finite number, got {r!r}"
    assert validate_roadmap(inst).issues[0] == line
    report = validate_plan(inst, [Move(0, 0, 1)])
    assert report == PlanReport(ok=False, failed_index=0, reason=f"invalid instance: {line}")
    assert not is_valid_transition(State(inst.starts), Move(0, 0, 1), inst)
    with pytest.raises(ValueError) as raised:
        joint_bfs_solve(inst)
    assert str(raised.value) == f"invalid instance: {line}"
    assert rm.edge_bands == {}  # a NaN key would add a table per call
    inst = Instance(roadmap=rm, radius=0.3, starts=(0, 2), goals=(1, 2))
    assert validate_plan(inst, [Move(0, 0, 1)]).reason == (
        "move 0: agent 1 at vertex 2 is within 2r of edge (0, 1)"
    )


@pytest.mark.parametrize("edge", [(0, -1), (-1, 0), (0, 4), (7, 7)])
def test_an_edge_to_a_missing_vertex_is_an_invalid_instance(edge):
    """``Roadmap.adjacency`` would file vertex -1 as vertex 3, a phantom
    neighbour that the plan replay and the oracle's search could step on."""
    rm = make_roadmap(line_instance((0,), (0,)).roadmap.points, [(0, 1), (1, 2), edge])
    line = f"edge ({edge[0]}, {edge[1]}) references a missing vertex"
    for goal in (0, 3):
        inst = Instance(roadmap=rm, radius=0.3, starts=(0,), goals=(goal,))
        assert validate_roadmap(inst).issues == (line,)
        report = validate_plan(inst, [Move(0, 0, -1), Move(0, -1, 0)])
        assert report == PlanReport(
            ok=False, failed_index=0, reason=f"invalid instance: {line}"
        )
        with pytest.raises(ValueError) as raised:
            joint_bfs_solve(inst)
        assert str(raised.value) == f"invalid instance: {line}"


@pytest.mark.parametrize(
    "edge, line",
    [
        pytest.param((1, 0), "duplicate edge (0, 1)", id="duplicate"),
        pytest.param((2, 2), "edge (2, 2) is a self-loop", id="self-loop"),
    ],
)
def test_a_self_loop_or_duplicate_edge_is_an_invalid_instance(edge, line):
    """The plan validator and the oracle reject the edge lists that
    ``validate_roadmap`` rejects, as ``solve`` does."""
    rm = make_roadmap(line_instance((0,), (0,)).roadmap.points, [(0, 1), (1, 2), (2, 3), edge])
    inst = Instance(roadmap=rm, radius=0.3, starts=(0,), goals=(1,))
    assert validate_roadmap(inst).issues == (line,)
    report = validate_plan(inst, [Move(0, 0, 1)])
    assert report == PlanReport(ok=False, failed_index=0, reason=f"invalid instance: {line}")
    with pytest.raises(ValueError) as raised:
        joint_bfs_solve(inst)
    assert str(raised.value) == f"invalid instance: {line}"


@st.composite
def _assignments(draw):
    """Start and goal tuples for a 4-vertex line: often of one length and
    in range, so that sound assignments are drawn as well as broken ones."""
    k = draw(st.integers(0, 4))
    vertex = st.integers(0, 3) if draw(st.booleans()) else st.integers(-2, 5)

    def side():
        unique = draw(st.booleans())
        return tuple(draw(st.lists(vertex, min_size=k, max_size=k, unique=unique)))

    starts = side()
    goals = side() if draw(st.booleans()) else tuple(draw(st.lists(vertex, max_size=4)))
    return starts, goals


@given(_assignments())
@settings(max_examples=300, deadline=None)
def test_plan_validator_and_oracle_reject_exactly_the_flagged_assignments(case):
    inst = line_instance(*case, n=4)
    issues = assignment_issues(inst)
    report = validate_plan(inst, [])
    if issues:
        expected = f"invalid instance: {issues[0]}"
        assert report == PlanReport(ok=False, failed_index=0, reason=expected)
        with pytest.raises(ValueError) as raised:
            joint_bfs_solve(inst, node_budget=1_000)
        assert str(raised.value) == expected
    else:
        assert not (report.reason or "").startswith("invalid instance")
        assert joint_bfs_solve(inst, node_budget=1_000).status in (SOLVED, UNSOLVABLE)


def reference_transition_error(state, move, instance):
    """Brute-force reference for the band table: the per-agent ``segdist``
    scan the validator ran on every move before it kept a band table."""
    rm = instance.roadmap
    if not 0 <= move.agent < len(state.positions):
        return f"no agent {move.agent}"
    if state.positions[move.agent] != move.src:
        return (
            f"agent {move.agent} is at vertex {state.positions[move.agent]}, "
            f"not {move.src}"
        )
    if edge_key(move.src, move.dst) not in rm.edge_set:
        return f"no edge between {move.src} and {move.dst}"
    threshold = clearance_threshold(instance.radius)
    a = rm.points[move.src]
    b = rm.points[move.dst]
    for other, v in enumerate(state.positions):
        if other == move.agent:
            continue
        if v == move.dst:
            return f"target vertex {move.dst} occupied by agent {other}"
        if segdist(rm.points[v], a, b) <= threshold:
            return (
                f"agent {other} at vertex {v} is within 2r of "
                f"edge ({move.src}, {move.dst})"
            )
    return None


def reference_validate_plan(instance, plan):
    state = State(instance.starts)
    for i, move in enumerate(plan):
        err = reference_transition_error(state, move, instance)
        if err is not None:
            return PlanReport(ok=False, failed_index=i, reason=f"move {i}: {err}")
        state = apply_move(state, move)
    for agent, goal in enumerate(instance.goals):
        if state.positions[agent] != goal:
            return PlanReport(
                ok=False,
                failed_index=len(plan),
                reason=(
                    f"goal not reached: agent {agent} ended at vertex "
                    f"{state.positions[agent]}, goal is {goal}"
                ),
            )
    return PlanReport(ok=True)


def _candidate_moves(state, instance):
    return [
        Move(agent, u, w)
        for agent, u in enumerate(state.positions)
        for w in instance.roadmap.adjacency[u]
    ]


def _random_walk(instance, rng, length):
    """A plan of up to ``length`` legal moves, and the state it ends in."""
    state = State(instance.starts)
    plan = []
    for _ in range(length):
        legal = [
            m for m in _candidate_moves(state, instance)
            if reference_transition_error(state, m, instance) is None
        ]
        if not legal:
            break
        plan.append(rng.choice(legal))
        state = apply_move(state, plan[-1])
    return plan, state


def _mutate(plan, mutation, instance, rng):
    if not plan or mutation == "none":
        return plan
    plan = list(plan)
    i = rng.randrange(len(plan))
    move = plan[i]
    if mutation == "drop":
        del plan[i]
    elif mutation == "swap":
        j = rng.randrange(len(plan))
        plan[i], plan[j] = plan[j], plan[i]
    elif mutation == "retarget":
        plan[i] = Move(move.agent, move.src, rng.choice(instance.roadmap.adjacency[move.src]))
    else:
        plan[i] = Move(rng.randrange(instance.n_agents), move.src, move.dst)
    return plan


def _with_non_finite_points(instance, rng):
    """``instance`` with 1 to a quarter of its vertices moved to NaN or
    infinite coordinates, half of them to a NaN x, the kind that can break a
    sort by x: such a vertex never interferes, and must not hide one that
    does from the band table."""
    pts = list(instance.roadmap.points)
    for v in rng.sample(range(len(pts)), rng.randint(1, len(pts) // 4)):
        bad = rng.choice([math.nan, math.inf, -math.inf])
        x, y = pts[v]
        pts[v] = rng.choice([(math.nan, y), (bad, y), (x, bad), (bad, bad)])
    roadmap = Roadmap(tuple(pts), instance.roadmap.edge_list)
    return Instance(roadmap, instance.radius, instance.starts, instance.goals)


@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(["none", "drop", "swap", "retarget", "agent"]),
)
@settings(max_examples=80, deadline=None)
def test_replay_matches_the_brute_force_segdist_replay(seed, mutation):
    rng = random.Random(seed)
    inst = _with_non_finite_points(fuzz_instance(seed, max_vertices=40, max_agents=8), rng)
    plan, final = _random_walk(inst, rng, rng.randint(0, 40))
    if rng.random() < 0.5:
        inst = Instance(inst.roadmap, inst.radius, inst.starts, final.positions)
    plan = _mutate(plan, mutation, inst, rng)
    assert validate_plan(inst, plan) == reference_validate_plan(inst, plan)
    # The band table itself, for the segments between 100 vertex pairs: a
    # vertex it misses only shows in a replay that puts an agent there, and
    # each pair probes another x-strip.
    pts, threshold = inst.roadmap.points, clearance_threshold(inst.radius)
    bands = validator.EdgeBands(inst)
    pairs = list(itertools.combinations(range(len(pts)), 2))
    for u, w in rng.sample(pairs, min(100, len(pairs))):
        assert bands(u, w) == {
            v for v in range(len(pts))
            if v not in (u, w) and segdist(pts[v], pts[u], pts[w]) <= threshold
        }, (u, w)
    # Every move open to every agent in every state the replay reaches, with
    # the reason: a move with several agents in its way must name the first.
    state = State(inst.starts)
    for move in plan:
        here = Instance(inst.roadmap, inst.radius, state.positions, state.positions)
        for m in [move, *_candidate_moves(state, inst)]:
            expected = reference_transition_error(state, m, inst)
            assert is_valid_transition(state, m, inst) is (expected is None), m
            assert validate_plan(here, [m]) == reference_validate_plan(here, [m])
        if reference_transition_error(state, move, inst) is not None:
            break
        state = apply_move(state, move)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("beyond, blocked", [(0.0, True), (1e-12, False)])
def test_band_keeps_a_vertex_exactly_at_the_threshold(axis, side, beyond, blocked):
    # Edge (0, 1) ends at the origin and vertex 2 lies on its line past that
    # end, so segdist is exactly vertex 2's offset: the box the band scans
    # must reach at least the threshold past the edge along both axes.
    threshold = clearance_threshold(0.3)
    offsets = [-1.2 * side, 0.0, side * (threshold + beyond)]
    pts = [(d, 0.0) if axis == 0 else (0.0, d) for d in offsets]
    rm = make_roadmap(pts, [(0, 1)])
    assert segdist(pts[2], pts[0], pts[1]) == threshold + beyond
    inst = Instance(roadmap=rm, radius=0.3, starts=(0, 2), goals=(1, 2))
    plan = [Move(0, 0, 1)]
    assert is_valid_transition(State(inst.starts), plan[0], inst) is not blocked
    assert validate_plan(inst, plan) == reference_validate_plan(inst, plan)
    assert validate_plan(inst, plan).ok is not blocked


def test_nan_vertex_does_not_hide_an_interferer():
    # Vertex 4 is 0.32 from edge (0, 1), inside 2r = 0.96.  A NaN x among
    # the sorted x coordinates used to break the sort, so the bisected strip
    # skipped vertex 4 and the traversal passed.
    rm = make_roadmap([(1, 0), (4, 1), (6, 2), (math.nan, 0), (3, 1)], [(0, 1)])
    assert segdist(rm.points[4], rm.points[0], rm.points[1]) < 0.33
    inst = Instance(roadmap=rm, radius=0.48, starts=(0, 4), goals=(1, 4))
    plan = [Move(0, 0, 1)]
    assert not is_valid_transition(State(inst.starts), plan[0], inst)
    report = validate_plan(inst, plan)
    assert report == reference_validate_plan(inst, plan)
    assert report.reason == "move 0: agent 1 at vertex 4 is within 2r of edge (0, 1)"
    assert joint_bfs_solve(inst).status != SOLVED
