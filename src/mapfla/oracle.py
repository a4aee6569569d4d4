"""Exhaustive joint-state A* search for toy instances.

Ground truth for solvability and for minimal plan lengths: the search runs
over the full product state space under the same transition semantics the
validator enforces, so it is complete (within its node budget) where the
solver is not.  It is an A* search (Hart, Nilsson & Raphael, 1968) guided by
the sum of the agents' hop distances to their goals, the admissible MAPF
heuristic Standley (AAAI 2010) builds on; an unsolvable instance still costs
the whole reachable component, up to ``|V|^K`` states.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import NamedTuple

from .model import Instance, Move, Plan
from .validator import edge_bands, instance_issues

SOLVED = "solved"
UNSOLVABLE = "unsolvable"
BUDGET_EXCEEDED = "budget_exceeded"


class OracleResult(NamedTuple):
    status: str  # solved | unsolvable | budget_exceeded
    plan: Plan | None
    expanded: int


def joint_bfs_solve(instance: Instance, node_budget: int = 1_000_000) -> OracleResult:
    """A* search over joint states, under a name that ``perfbench`` calls
    and traces.

    Returns a move-count-minimal plan when the goal is reachable, reports
    ``unsolvable`` only after the whole reachable component was enumerated,
    and ``budget_exceeded`` when the expansion budget ran out first;
    ``expanded`` counts the states whose successors were generated.  A
    radius that is not positive and finite, a malformed start/goal
    assignment, or an edge that is a self-loop, a duplicate or has an
    endpoint outside ``0..|V|-1``, raises ``ValueError``.

    The heuristic is ``h = sum(roadmap.hops_to(goals[i])[pos[i]])``, read
    from the hop lists the roadmap keeps (a solve on the same roadmap has
    usually filled them).  A move shifts one agent by one edge, so ``h`` is
    consistent: each state is expanded at most once, the goal is tested when
    a state leaves the heap, and entries left behind by a shorter path are
    skipped.  Heap entries are ``(g + h, -g, state)``, so ties on ``g + h``
    go deepest first and then to the smaller state, and plans are
    canonical.  An agent whose goal is in another component adds ``|V|`` to
    every state alike.

    A joint state is the integer ``sum(pos[i] * |V|**i)``.  Moving from ``u``
    to ``w`` is legal iff the state's occupied-vertex bits miss the edge's
    mask: bit ``w`` and its band's bits, built when a state first has an
    agent on ``u``.  The bands come from the validator's table, which the
    roadmap keeps per radius, so the oracle shares it with every validation
    on the same ``Roadmap``.
    """
    issues = instance_issues(instance)
    if issues:
        raise ValueError(f"invalid instance: {issues[0]}")
    n, k = instance.roadmap.n_vertices, len(instance.starts)
    steps = [n**agent for agent in range(k)]
    start = sum(v * step for v, step in zip(instance.starts, steps))
    goal = sum(v * step for v, step in zip(instance.goals, steps))
    if start == goal:
        return OracleResult(SOLVED, [], expanded=0)

    hops = [instance.roadmap.hops_to(v) for v in instance.goals]
    adjacency = instance.roadmap.adjacency
    bands = edge_bands(instance)
    moves: list[list[tuple[int, int]] | None] = [None] * n
    parents: dict[int, int | None] = {start: None}
    depth = {start: 0}
    heap = [(sum(h[v] for h, v in zip(hops, instance.starts)), 0, start)]
    expanded = 0
    while heap:
        f, minus_g, current = heappop(heap)
        if -minus_g > depth[current]:
            continue  # stale: the state was reached by a shorter path since
        if current == goal:
            return OracleResult(SOLVED, _backtrack(parents, current, n, k), expanded)
        if expanded >= node_budget:
            return OracleResult(BUDGET_EXCEEDED, None, expanded)
        expanded += 1
        positions = _decode(current, n, k)
        occupied = 0
        for u in positions:
            occupied |= 1 << u
        g = 1 - minus_g  # the successors' depth
        for u, step, to_goal in zip(positions, steps, hops):
            out = moves[u]
            if out is None:
                out = moves[u] = [
                    (w, sum(1 << v for v in bands(u, w)) | 1 << w) for w in adjacency[u]
                ]
            base = f + 1 - to_goal[u]
            for w, mask in out:
                if occupied & mask:
                    continue
                nxt = current + (w - u) * step
                if depth.get(nxt, g + 1) <= g:  # as short a path is known
                    continue
                depth[nxt] = g
                parents[nxt] = current
                heappush(heap, (base + to_goal[w], -g, nxt))
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
