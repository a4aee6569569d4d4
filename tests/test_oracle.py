import math
import random
from collections import deque

import pytest

from helpers import ordering_instance, replay, star_instance, tiny_instance, toy_instance
from mapfla import solver
from mapfla.geometry import clearance_threshold, segdist
from mapfla.harness import gen_roadmap
from mapfla.model import Instance, Move, make_roadmap
from mapfla.oracle import (
    BUDGET_EXCEEDED,
    SOLVED,
    UNSOLVABLE,
    OracleResult,
    joint_bfs_solve,
)
from mapfla.validator import EdgeBands, validate_plan


def test_start_equals_goal_gives_empty_plan():
    rm = make_roadmap([(0, 0), (2, 0)], [(0, 1)])
    inst = Instance(roadmap=rm, radius=0.3, starts=(0,), goals=(0,))
    result = joint_bfs_solve(inst)
    assert result.status == SOLVED
    assert result.plan == []


def test_star_fixture_unsolvable_by_full_enumeration():
    result = joint_bfs_solve(star_instance())
    assert result.status == UNSOLVABLE
    # mutual interference freezes the start state completely
    assert result.expanded == 1


def test_ordering_fixture_solvable_minimal():
    result = joint_bfs_solve(ordering_instance())
    assert result.status == SOLVED
    assert len(result.plan) == 4  # blue out of the way (2 moves) + green across (2)
    assert result.plan[0].agent == 1


def test_budget_exhaustion_is_distinguished():
    inst = tiny_instance(5)
    result = joint_bfs_solve(inst, node_budget=1)
    assert result.status in (BUDGET_EXCEEDED, SOLVED)
    full = joint_bfs_solve(inst, node_budget=10**6)
    assert full.status in (SOLVED, UNSOLVABLE)


def test_oracle_plans_validate_and_are_minimal_prefix_free():
    solved = 0
    for seed in range(40):
        inst = tiny_instance(seed)
        result = joint_bfs_solve(inst, node_budget=200_000)
        if result.status != SOLVED:
            continue
        solved += 1
        assert validate_plan(inst, result.plan).ok
        final = replay(inst, result.plan)
        assert final.positions == inst.goals
        # minimality: no strict prefix already solves the instance
        for i in range(len(result.plan)):
            assert not validate_plan(inst, result.plan[:i]).ok
    assert solved > 15


def reference_joint_bfs(instance, node_budget=1_000_000):
    """The joint BFS as it ran before the band table: every successor is
    checked by a per-agent ``segdist`` scan."""
    rm = instance.roadmap
    threshold = clearance_threshold(instance.radius)
    start, goal = tuple(instance.starts), tuple(instance.goals)
    if start == goal:
        return OracleResult(SOLVED, [], expanded=0)
    parents = {start: None}
    queue = deque([start])
    expanded = 0
    while queue:
        if expanded >= node_budget:
            return OracleResult(BUDGET_EXCEEDED, None, expanded)
        current = queue.popleft()
        expanded += 1
        for agent, u in enumerate(current):
            for w in rm.neighbors(u):
                a, b = rm.points[u], rm.points[w]
                if any(
                    v == w or segdist(rm.points[v], a, b) <= threshold
                    for other, v in enumerate(current)
                    if other != agent
                ):
                    continue
                nxt = current[:agent] + (w,) + current[agent + 1 :]
                if nxt in parents:
                    continue
                parents[nxt] = (current, Move(agent, u, w))
                if nxt == goal:
                    plan, node = [], nxt
                    while parents[node] is not None:
                        node, move = parents[node]
                        plan.append(move)
                    return OracleResult(SOLVED, plan[::-1], expanded)
                queue.append(nxt)
    return OracleResult(UNSOLVABLE, None, expanded)


def outcome(result):
    """What the oracle promises about a finished search: its status, the
    (minimal) plan length, and on an unsolvable instance the number of
    states expanded, the size of the reachable component.  Which minimal plan
    is found and how many states a solved search expands follow the search
    order, so they are left out."""
    length = None if result.plan is None else len(result.plan)
    return result.status, length, result.expanded if result.status == UNSOLVABLE else None


def assert_finished_with(inst, result, expected):
    assert outcome(result) == expected
    if result.status == SOLVED:
        assert validate_plan(inst, result.plan).ok


def assert_small_budget(inst, budget, expected):
    """Under ``budget`` the oracle either stops after exactly that many
    expansions or gives the full-budget ``expected`` outcome."""
    result = joint_bfs_solve(inst, node_budget=budget)
    if result.status == BUDGET_EXCEEDED:
        assert result.expanded == budget and result.plan is None
    else:
        assert_finished_with(inst, result, expected)
    return result.status


def test_oracle_matches_the_per_agent_segdist_search():
    statuses = set()
    fixtures = [star_instance(), ordering_instance()]
    for inst in [tiny_instance(seed) for seed in range(220)] + fixtures:
        result = joint_bfs_solve(inst, node_budget=200_000)
        assert_finished_with(inst, result, outcome(reference_joint_bfs(inst, node_budget=200_000)))
        statuses.add(result.status)
    assert statuses == {SOLVED, UNSOLVABLE}
    for seed in range(10):
        inst = tiny_instance(seed)
        expected = outcome(reference_joint_bfs(inst, node_budget=200_000))
        for budget in (1, 2, 5, 20):
            statuses.add(assert_small_budget(inst, budget, expected))
    assert BUDGET_EXCEEDED in statuses


def shaped_instance(seed, n_vertices, n_agents, pinned):
    """A toy-like instance on at most ``n_vertices`` vertices.  When
    ``pinned``, the first agent goes from vertex 0 to vertex |V| - 1 and
    the last one the other way, so the lowest and highest bits and digits of
    the oracle's coding are in play."""
    rng = random.Random(seed)
    side = math.sqrt(n_vertices * math.pi * 0.25 / 0.3)
    rm = gen_roadmap(n_vertices, 3.4, 1.0, (side, side), seed=rng.randrange(2**31))
    last = rm.n_vertices - 1
    k = min(n_agents, last - 1)
    if not pinned:
        starts = rng.sample(range(last + 1), k)
        goals = rng.sample(range(last + 1), k)
    elif k == 1:
        starts, goals = [0], [last]
    else:
        starts = [0, *rng.sample(range(1, last), k - 2), last]
        goals = [last, *rng.sample(range(1, last), k - 2), 0]
    radius = rng.uniform(0.3, 0.49)
    return Instance(roadmap=rm, radius=radius, starts=tuple(starts), goals=tuple(goals))


# Minimal plan lengths that ``reference_joint_bfs`` finds at a budget of
# 200,000 on the shapes whose 2,000-state budget it runs out of, keyed
# (n_vertices, n_agents, seed, pinned).  The A* oracle solves each of them
# within 2,000 expansions; a full reference run here would take about 25 s.
LONGER_REFERENCE_LENGTHS = {
    (12, 5, 0, True): 14,
    (12, 5, 1, False): 8,
    (12, 5, 1, True): 8,
    (12, 5, 2, False): 7,
    (12, 5, 2, True): 13,
    (12, 5, 3, False): 7,
    (12, 5, 3, True): 13,
    (200, 2, 0, False): 15,
    (200, 2, 0, True): 30,
    (200, 2, 1, False): 20,
    (200, 2, 2, False): 11,
}


@pytest.mark.parametrize(
    "n_vertices, n_agents, seeds, budget",
    [
        (12, 1, 30, 200_000),
        (12, 4, 6, 200_000),
        (12, 5, 4, 2_000),
        (80, 2, 3, 200_000),
        (200, 2, 3, 2_000),
    ],
)
def test_oracle_matches_the_reference_on_other_shapes(n_vertices, n_agents, seeds, budget):
    """One agent, four and five agents, and roadmaps whose masks exceed 64
    bits, with agents on the ids 0 and |V| - 1 or not, at small budgets and
    a large one.  Where the reference BFS runs out of the large budget, the
    oracle must still finish with the reference's minimal length."""
    statuses = set()
    for seed in range(seeds):
        for pinned in (False, True):
            inst = shaped_instance(seed, n_vertices, n_agents, pinned)
            if n_vertices > 64:
                assert inst.roadmap.n_vertices > 64
            reference = reference_joint_bfs(inst, node_budget=budget)
            if reference.status == BUDGET_EXCEEDED:
                key = (n_vertices, n_agents, seed, pinned)
                expected = (SOLVED, LONGER_REFERENCE_LENGTHS[key], None)
            else:
                expected = outcome(reference)
            result = joint_bfs_solve(inst, node_budget=budget)
            assert_finished_with(inst, result, expected)
            statuses.add(result.status)
            for b in (1, 2, 5, 20):
                statuses.add(assert_small_budget(inst, b, expected))
    assert SOLVED in statuses and BUDGET_EXCEEDED in statuses


def test_a_budget_the_whole_component_fits_in_is_not_exceeded():
    result = joint_bfs_solve(star_instance(), node_budget=1)
    assert result == OracleResult(UNSOLVABLE, None, expanded=1)
    assert result == reference_joint_bfs(star_instance(), node_budget=1)


def test_oracle_asks_only_for_edges_at_occupied_vertices(monkeypatch):
    asked = []
    original = EdgeBands.__call__

    def spy(self, u, w):
        asked.append((u, w))
        return original(self, u, w)

    monkeypatch.setattr(EdgeBands, "__call__", spy)
    assert joint_bfs_solve(star_instance()).expanded == 1
    assert sorted(asked) == [(1, 0), (2, 0), (3, 0)]
    # with a budget of one expansion only the start state is ever occupied
    for seed in range(20):
        inst = tiny_instance(seed)
        asked.clear()
        joint_bfs_solve(inst, node_budget=1)
        assert {u for u, _ in asked} <= set(inst.starts), seed


def test_malformed_assignment_is_rejected():
    rm = make_roadmap([(1.2 * i, 0.0) for i in range(3)], [(0, 1), (1, 2)])
    for starts, goals in (((0, 0), (1, 2)), ((0,), (1, 2)), ((5,), (1,))):
        with pytest.raises(ValueError, match="invalid instance"):
            joint_bfs_solve(Instance(roadmap=rm, radius=0.3, starts=starts, goals=goals))


def test_an_unsolvable_toy_enumerates_the_reference_component():
    inst = toy_instance(315, 12, 5)
    result = joint_bfs_solve(inst)
    assert result == reference_joint_bfs(inst) == OracleResult(UNSOLVABLE, None, expanded=504)


def test_a_goal_in_another_component_enumerates_the_reference_component():
    # agent 0's goal, vertex 4, lies off the path 0-1-2-3 it starts on
    rm = make_roadmap(
        [(0.0, 0.0), (1.2, 0.0), (2.4, 0.0), (3.6, 0.0), (20.0, 0.0), (21.2, 0.0)],
        [(0, 1), (1, 2), (2, 3), (4, 5)],
    )
    inst = Instance(roadmap=rm, radius=0.3, starts=(0, 3), goals=(4, 1))
    assert rm.hops_to(4)[0] == rm.n_vertices
    result = joint_bfs_solve(inst)
    assert result.status == UNSOLVABLE and result.expanded > 1
    assert result == reference_joint_bfs(inst)


@pytest.mark.parametrize("seed", range(3))
def test_crowded_toys_are_solved_within_the_default_budget(seed):
    inst = toy_instance(seed, 16, 7)
    assert len(inst.starts) == 7
    result = joint_bfs_solve(inst)
    assert result.status == SOLVED
    assert validate_plan(inst, result.plan).ok
    assert replay(inst, result.plan).positions == inst.goals
    for i in range(len(result.plan)):
        assert not validate_plan(inst, result.plan[:i]).ok


def test_the_heuristic_reads_the_goals_hop_arrays_kept_on_the_roadmap():
    inst = toy_instance(0)
    assert not inst.roadmap.goal_hops
    joint_bfs_solve(inst)
    assert set(inst.roadmap.goal_hops) == set(inst.goals)
    solved = toy_instance(0)
    assert solver.solve(solved, solver.SolverConfig(mode=solver.LA)).status == solver.SOLVED
    kept = dict(solved.roadmap.goal_hops)
    assert set(kept) == set(solved.goals)
    joint_bfs_solve(solved)
    assert solved.roadmap.goal_hops == kept
    assert all(solved.roadmap.goal_hops[g] is hops for g, hops in kept.items())
