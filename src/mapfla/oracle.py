"""Exhaustive joint-state breadth-first search for toy instances.

Ground truth for solvability and for minimal plan lengths: the search expands
the full product state space under the same transition semantics the
validator enforces, so it is complete (within its node budget) where the
solver is not.  Intended for ``|V| <= ~12`` and ``K <= ~4``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .model import Instance, Move, Plan, assignment_issues
from .validator import EdgeBands

SOLVED = "solved"
UNSOLVABLE = "unsolvable"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class OracleResult:
    status: str  # solved | unsolvable | budget_exceeded
    plan: Plan | None
    expanded: int


def joint_bfs_solve(instance: Instance, node_budget: int = 1_000_000) -> OracleResult:
    """Breadth-first search over joint states.

    Returns a move-count-minimal plan when the goal is reachable, reports
    ``unsolvable`` only after the whole reachable component was enumerated,
    and ``budget_exceeded`` when the expansion budget ran out first.
    Successors are generated agents-by-id then neighbours-by-id, so plans
    are canonical.  A malformed start/goal assignment raises ``ValueError``.
    """
    issues = assignment_issues(instance)
    if issues:
        raise ValueError(f"invalid instance: {issues[0]}")
    rm = instance.roadmap
    start = tuple(instance.starts)
    goal = tuple(instance.goals)
    if start == goal:
        return OracleResult(SOLVED, [], expanded=0)

    parents: dict[tuple[int, ...], tuple[tuple[int, ...], Move] | None] = {start: None}
    queue: deque[tuple[int, ...]] = deque([start])
    bands = EdgeBands(instance)
    expanded = 0
    while queue:
        if expanded >= node_budget:
            return OracleResult(BUDGET_EXCEEDED, None, expanded)
        current = queue.popleft()
        expanded += 1
        occupied = set(current)
        for agent, u in enumerate(current):
            for w in rm.neighbors(u):
                if w in occupied or not occupied.isdisjoint(bands(u, w)):
                    continue
                nxt = current[:agent] + (w,) + current[agent + 1 :]
                if nxt in parents:
                    continue
                parents[nxt] = (current, Move(agent, u, w))
                if nxt == goal:
                    return OracleResult(SOLVED, _backtrack(parents, nxt), expanded)
                queue.append(nxt)
    return OracleResult(UNSOLVABLE, None, expanded)


def _backtrack(
    parents: dict[tuple[int, ...], tuple[tuple[int, ...], Move] | None],
    node: tuple[int, ...],
) -> Plan:
    moves: list[Move] = []
    while True:
        entry = parents[node]
        if entry is None:
            break
        node, move = entry
        moves.append(move)
    moves.reverse()
    return moves
