"""Data model: roadmaps embedded in the plane, problem instances, agent states,
moves, and the precomputed edge/vertex interference structure.

Conventions used throughout the package:

* vertex ids are dense ``0..|V|-1``; agents are indexed ``0..K-1``
* edges are undirected and stored canonically as ``(min, max)`` pairs;
  a :class:`Move` records the traversal direction
* an agent occupying a vertex blocks traversal of every edge whose segment
  passes within ``2r`` of that vertex (the interference relation)
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .geometry import EPS, Point2D, clearance_threshold, dist, segdist

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Canonical (undirected) form of an edge."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Roadmap:
    """Graph embedded in the plane: vertex coordinates plus undirected edges.

    ``edge_list`` keeps edges exactly as supplied (including any malformed
    entries) so that :func:`validate_roadmap` can report them; derived
    structures below assume a roadmap that passed validation.
    """

    points: tuple[Point2D, ...]
    edge_list: tuple[tuple[int, int], ...]

    @property
    def n_vertices(self) -> int:
        return len(self.points)

    @property
    def n_edges(self) -> int:
        return len(self.edge_set)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(edge_key(u, v) for u, v in self.edge_list if u != v)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[set[int]] = [set() for _ in self.points]
        for u, v in self.edge_set:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(tuple(sorted(s)) for s in nbrs)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edge_set


@dataclass(frozen=True)
class Instance:
    """A solvable-or-not problem: roadmap, agent radius, start and goal vertices."""

    roadmap: Roadmap
    radius: float
    starts: tuple[int, ...]
    goals: tuple[int, ...]

    @property
    def n_agents(self) -> int:
        return len(self.starts)


@dataclass(frozen=True)
class State:
    """Injective assignment of agents to vertices; ``positions[i]`` is agent i's vertex."""

    positions: tuple[int, ...]


@dataclass(frozen=True)
class Move:
    """One agent traversing one edge."""

    agent: int
    src: int
    dst: int


Plan = list[Move]


@dataclass(frozen=True)
class InterferenceCache:
    """Precomputed interference relation for one (roadmap, radius) pair.

    ``edge_vertices[e]`` holds every non-endpoint vertex whose occupation
    blocks traversal of ``e``; ``vertex_edges`` is the exact inverse map.
    """

    radius: float
    edge_vertices: dict[Edge, frozenset[int]]
    vertex_edges: dict[int, frozenset[Edge]]


def _x_sorted(points: tuple[Point2D, ...]) -> tuple[list[int], list[float]]:
    """Ids of the finite points sorted by x, and their x coordinates."""
    order = sorted(
        (v for v, (x, y) in enumerate(points) if math.isfinite(x) and math.isfinite(y)),
        key=lambda v: points[v][0],
    )
    return order, [points[v][0] for v in order]


def build_interference(roadmap: Roadmap, radius: float) -> InterferenceCache:
    """Compute, for every edge, the vertices within ``2r`` of its segment.

    The blocked band is closed with tolerance: a vertex at distance
    ``<= 2r + EPS`` counts as interfering, matching the strict ``> 2r``
    clearance the validator demands of transitions.  Only the finite
    vertices in the edge's bounding box, grown by that threshold plus ``EPS``
    against rounding, are found by an x-sorted sweep and given to ``segdist``.
    """
    threshold = clearance_threshold(radius)
    margin = threshold + EPS
    pts = roadmap.points
    order, xs = _x_sorted(pts)
    edge_vertices: dict[Edge, frozenset[int]] = {}
    vertex_edges: dict[int, set[Edge]] = {v: set() for v in range(len(pts))}
    for e in sorted(roadmap.edge_set):
        u, w = e
        a, b = pts[u], pts[w]
        lo = bisect_left(xs, min(a[0], b[0]) - margin)
        hi = bisect_right(xs, max(a[0], b[0]) + margin)
        ylo, yhi = min(a[1], b[1]) - margin, max(a[1], b[1]) + margin
        hits = sorted(
            v for v in order[lo:hi] if ylo <= pts[v][1] <= yhi and v != u and v != w
            and segdist(pts[v], a, b) <= threshold
        )
        for v in hits:
            vertex_edges[v].add(e)
        edge_vertices[e] = frozenset(hits)
    return InterferenceCache(
        radius=radius,
        edge_vertices=edge_vertices,
        vertex_edges={v: frozenset(s) for v, s in vertex_edges.items()},
    )


@dataclass(frozen=True)
class InstanceReport:
    """Outcome of :func:`validate_roadmap`: ok flag plus one line per violation."""

    ok: bool
    issues: tuple[str, ...]


def validate_roadmap(instance: Instance) -> InstanceReport:
    """Check every structural invariant of an instance, never raising.

    Reported violations:
      * non-finite coordinates or non-positive radius
      * edge endpoints out of range, self-loops, duplicate edges
      * vertex pairs not strictly farther apart than ``2r``, in ``(u, v)``
        order, testing only the finite pairs an x-sorted sweep finds within
        ``2r + 2 EPS`` of each other along both axes
      * start/goal assignments out of range or non-injective
    """
    issues: list[str] = []
    rm = instance.roadmap
    n = rm.n_vertices
    r = instance.radius

    if not (isinstance(r, (int, float)) and math.isfinite(r) and r > 0):
        issues.append(f"agent radius must be a positive finite number, got {r!r}")

    for v, (x, y) in enumerate(rm.points):
        if not (math.isfinite(x) and math.isfinite(y)):
            issues.append(f"vertex {v} has non-finite coordinates ({x!r}, {y!r})")

    seen: set[Edge] = set()
    for u, v in rm.edge_list:
        if not (0 <= u < n and 0 <= v < n):
            issues.append(f"edge ({u}, {v}) references a missing vertex")
            continue
        if u == v:
            issues.append(f"edge ({u}, {v}) is a self-loop")
            continue
        k = edge_key(u, v)
        if k in seen:
            issues.append(f"duplicate edge ({k[0]}, {k[1]})")
        seen.add(k)

    if math.isfinite(r) and r > 0:
        limit = clearance_threshold(r)
        margin = limit + EPS
        pts = rm.points
        order, xs = _x_sorted(pts)
        close = []
        for i, u in enumerate(order):
            x, y = pts[u]
            for v in order[i + 1 : bisect_right(xs, x + margin, i + 1)]:
                if abs(pts[v][1] - y) <= margin and (d := dist(pts[u], pts[v])) <= limit:
                    close.append((min(u, v), max(u, v), d))
        for u, v, d in sorted(close):
            issues.append(
                f"vertices {u} and {v} are {d:.9g} apart; "
                f"separation must exceed 2r = {2 * r:.9g}"
            )

    for name, assignment in (("start", instance.starts), ("goal", instance.goals)):
        for agent, v in enumerate(assignment):
            if not 0 <= v < n:
                issues.append(f"{name} of agent {agent} is missing vertex {v}")
        taken: dict[int, int] = {}
        for agent, v in enumerate(assignment):
            if v in taken:
                issues.append(
                    f"{name} vertex {v} assigned to agents {taken[v]} and {agent}"
                )
            else:
                taken[v] = agent
    if len(instance.starts) != len(instance.goals):
        issues.append(
            f"{len(instance.starts)} starts but {len(instance.goals)} goals"
        )

    return InstanceReport(ok=not issues, issues=tuple(issues))


def empty_vertices(state: State, roadmap: Roadmap) -> frozenset[int]:
    """Vertices not occupied by any agent."""
    return frozenset(range(roadmap.n_vertices)) - set(state.positions)


def apply_move(state: State, move: Move) -> State:
    """Apply a single move, enforcing its preconditions.

    Raises ``ValueError`` if the agent is absent from ``move.src`` or the
    target vertex is occupied: such a call is an internal consistency bug,
    not a planning failure.
    """
    if not 0 <= move.agent < len(state.positions):
        raise ValueError(f"no agent {move.agent} in state")
    if state.positions[move.agent] != move.src:
        raise ValueError(
            f"agent {move.agent} is at {state.positions[move.agent]}, not {move.src}"
        )
    if move.dst in state.positions:
        raise ValueError(f"target vertex {move.dst} is occupied")
    positions = list(state.positions)
    positions[move.agent] = move.dst
    return State(tuple(positions))


def make_roadmap(points: Iterable[Point2D], edges: Iterable[tuple[int, int]]) -> Roadmap:
    """Convenience constructor from arbitrary iterables."""
    return Roadmap(
        points=tuple((float(x), float(y)) for x, y in points),
        edge_list=tuple((int(u), int(v)) for u, v in edges),
    )
