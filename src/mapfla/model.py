"""Data model: roadmaps embedded in the plane, problem instances, agent states,
moves, and the edge/vertex interference relation.

The relation is computed one edge's band at a time on first lookup by
:func:`interference_table`, the solver's per-solve table; it has no map from
a vertex to its edges.  Its band test and the separation check of
:func:`validate_roadmap` share one sort of the vertices by x per roadmap
(:attr:`Roadmap.x_order`).  The edge endpoint check
(:attr:`Roadmap.endpoint_issues`) and the start/goal assignment check
(:func:`assignment_issues`) serve roadmap validation, the plan validator and
the oracle.

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
from typing import Callable, Container, Iterable

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

    @cached_property
    def x_order(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Ids of the finite vertices sorted by x, and their x coordinates."""
        pts = self.points
        order = tuple(sorted(
            (v for v, (x, y) in enumerate(pts) if math.isfinite(x) and math.isfinite(y)),
            key=lambda v: pts[v][0],
        ))
        return order, tuple(pts[v][0] for v in order)

    @cached_property
    def endpoint_issues(self) -> tuple[str, ...]:
        """One line per edge with an endpoint outside ``0..|V|-1``, in edge
        order; empty iff every edge joins two vertices of the roadmap."""
        n = self.n_vertices
        return tuple(
            f"edge ({u}, {v}) references a missing vertex"
            for u, v in self.edge_list
            if not (0 <= u < n and 0 <= v < n)
        )

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
    """Interference relation for one (roadmap, radius) pair.

    ``edge_vertices[e]`` holds every non-endpoint vertex whose occupation
    blocks traversal of ``e``, its band; :func:`interference_table` fills
    each key on its first lookup.  Nothing maps a vertex to its edges.
    """

    edge_vertices: dict[Edge, frozenset[int]]


def _band_test(roadmap: Roadmap, radius: float) -> Callable[[Edge], frozenset[int]]:
    """The band test of one (roadmap, radius) pair: a function from an edge
    to the vertices in its band.

    A vertex is in edge ``e``'s band when it is finite, not an endpoint of
    ``e``, lies in ``e``'s bounding box grown by ``2r + EPS`` plus ``EPS``
    against rounding (the x strip is found by bisecting the finite vertices
    sorted by x), and ``segdist`` puts it within ``2r + EPS`` of the segment:
    the blocked band is closed with tolerance, matching the strict ``> 2r``
    clearance the validator demands of transitions.
    """
    threshold = clearance_threshold(radius)
    margin = threshold + EPS
    pts = roadmap.points
    order, xs = roadmap.x_order

    def band(e: Edge) -> frozenset[int]:
        u, w = e
        a, b = pts[u], pts[w]
        (ax, ay), (bx, by) = a, b
        if bx < ax:  # swaps, not min and max: they cost a quarter as much
            ax, bx = bx, ax
        if by < ay:
            ay, by = by, ay
        ylo, yhi = ay - margin, by + margin
        return frozenset([
            v for v in order[bisect_left(xs, ax - margin):bisect_right(xs, bx + margin)]
            if ylo <= pts[v][1] <= yhi and v != u and v != w
            and segdist(pts[v], a, b) <= threshold
        ])

    return band


class _FilledOnUse(dict):
    """A map of :func:`interference_table`: a hit is a plain dict lookup; a
    miss on one of ``keys`` computes the value with ``fill`` and stores it.
    Any other key gives None and is not stored."""

    __slots__ = ("_fill", "_keys")

    def __init__(self, fill: Callable, keys: Container):
        super().__init__()
        self._fill = fill
        self._keys = keys

    def __missing__(self, key):
        if key not in self._keys:
            return None
        value = self[key] = self._fill(key)
        return value


def interference_table(roadmap: Roadmap, radius: float) -> InterferenceCache:
    """For every edge, the vertices within ``2r`` of its segment, each
    computed the first time the edge is looked up.

    It is meant to live for one solve; ``len(edge_vertices)`` is the number
    of bands computed so far.
    """
    return InterferenceCache(
        edge_vertices=_FilledOnUse(_band_test(roadmap, radius), roadmap.edge_set)
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
      * edge endpoints out of range (:attr:`Roadmap.endpoint_issues`),
        self-loops, duplicate edges
      * vertex pairs not strictly farther apart than ``2r``, in ``(u, v)``
        order, testing only the finite pairs an x-sorted sweep finds within
        ``2r + 2 EPS`` of each other along both axes
      * start/goal assignments out of range or non-injective
        (:func:`assignment_issues`)
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

    stray = iter(rm.endpoint_issues)  # one line per out-of-range edge, in order
    seen: set[Edge] = set()
    for u, v in rm.edge_list:
        if not (0 <= u < n and 0 <= v < n):
            issues.append(next(stray))
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
        order, xs = rm.x_order
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

    issues += assignment_issues(instance)
    return InstanceReport(ok=not issues, issues=tuple(issues))


def assignment_issues(instance: Instance) -> list[str]:
    """One line per start or goal off the roadmap or shared by two agents,
    then one if the start and goal counts differ; empty iff the assignment
    is sound.  O(K)."""
    issues: list[str] = []
    n = instance.roadmap.n_vertices
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
    return issues


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
