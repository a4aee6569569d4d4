import math
import random
from collections import deque

import pytest

from helpers import ordering_instance, replay, star_instance, tiny_instance
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


def test_oracle_matches_the_per_agent_segdist_search():
    statuses = set()
    fixtures = [star_instance(), ordering_instance()]
    for inst in [tiny_instance(seed) for seed in range(220)] + fixtures:
        result = joint_bfs_solve(inst, node_budget=200_000)
        assert result == reference_joint_bfs(inst, node_budget=200_000), inst
        statuses.add(result.status)
    assert statuses == {SOLVED, UNSOLVABLE}
    for budget in (1, 2, 5, 20):
        for seed in range(10):
            inst = tiny_instance(seed)
            result = joint_bfs_solve(inst, node_budget=budget)
            assert result == reference_joint_bfs(inst, node_budget=budget), (seed, budget)
            statuses.add(result.status)
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
    a large one."""
    statuses = set()
    for seed in range(seeds):
        for pinned in (False, True):
            inst = shaped_instance(seed, n_vertices, n_agents, pinned)
            if n_vertices > 64:
                assert inst.roadmap.n_vertices > 64
            for b in (1, 2, 5, 20, budget):
                result = joint_bfs_solve(inst, node_budget=b)
                assert result == reference_joint_bfs(inst, node_budget=b), (seed, pinned, b)
                statuses.add(result.status)
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
