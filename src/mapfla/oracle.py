"""Exhaustive joint-state breadth-first search for toy instances.

Ground truth for solvability and for minimal plan lengths: the search expands
the full product state space under the same transition semantics the
validator enforces, so it is complete (within its node budget) where the
solver is not.  It expands up to ``|V|^K`` states; on a shared 2-core host
(Python 3.11) a 12-vertex 3-agent toy takes 2 ms on average, 5 agents on 16
vertices 1.4 s (at most 3.5 s over 60 toys) and 2 agents on 200 vertices 0.1 s.
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
    are canonical.  A malformed start/goal assignment, or an edge that is a
    self-loop, a duplicate or has an endpoint outside ``0..|V|-1``, raises
    ``ValueError``.

    A joint state is the integer ``sum(pos[i] * |V|**i)``.  Moving from ``u``
    to ``w`` is legal iff the state's occupied-vertex bits miss the edge's
    mask: bit ``w`` and its band's bits, built when a state first has an
    agent on ``u``.
    """
    issues = [*instance.roadmap.edge_issues, *assignment_issues(instance)]
    if issues:
        raise ValueError(f"invalid instance: {issues[0]}")
    n, k = instance.roadmap.n_vertices, len(instance.starts)
    steps = [n**agent for agent in range(k)]
    start = sum(v * step for v, step in zip(instance.starts, steps))
    goal = sum(v * step for v, step in zip(instance.goals, steps))
    if start == goal:
        return OracleResult(SOLVED, [], expanded=0)

    adjacency = instance.roadmap.adjacency
    bands = EdgeBands(instance)
    moves: list[list[tuple[int, int]] | None] = [None] * n
    parents: dict[int, int | None] = {start: None}
    queue: deque[int] = deque([start])
    expanded = 0
    while queue:
        if expanded >= node_budget:
            return OracleResult(BUDGET_EXCEEDED, None, expanded)
        current = queue.popleft()
        expanded += 1
        positions = _decode(current, n, k)
        occupied = 0
        for u in positions:
            occupied |= 1 << u
        for u, step in zip(positions, steps):
            out = moves[u]
            if out is None:
                out = moves[u] = [
                    (w, sum(1 << v for v in bands(u, w)) | 1 << w) for w in adjacency[u]
                ]
            for w, mask in out:
                if occupied & mask:
                    continue
                nxt = current + (w - u) * step
                if nxt in parents:
                    continue
                parents[nxt] = current
                if nxt == goal:
                    return OracleResult(SOLVED, _backtrack(parents, nxt, n, k), expanded)
                queue.append(nxt)
    return OracleResult(UNSOLVABLE, None, expanded)


def _decode(code: int, n: int, k: int) -> list[int]:
    positions = []
    for _ in range(k):
        code, v = divmod(code, n)
        positions.append(v)
    return positions


def _backtrack(parents: dict[int, int | None], node: int, n: int, k: int) -> Plan:
    moves: list[Move] = []
    after = _decode(node, n, k)
    while (parent := parents[node]) is not None:
        before = _decode(parent, n, k)
        agent = next(i for i in range(k) if before[i] != after[i])
        moves.append(Move(agent, before[agent], after[agent]))
        node, after = parent, before
    return moves[::-1]
