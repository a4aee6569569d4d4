"""Data model: roadmaps embedded in the plane, problem instances, agent states,
moves, and the edge/vertex interference relation.

The relation is computed one edge's band at a time on first lookup by
:class:`InterferenceCache`; it has no map from a vertex to its edges.  A
roadmap keeps one table per agent radius (:attr:`Roadmap.interference_tables`),
so every solve on the same ``Roadmap`` object shares the bands earlier solves
computed, and each goal's hop distances (:meth:`Roadmap.hops_to`) for the
solver's outer-loop path search.  Its band test and the separation check of
:func:`validate_roadmap` share one sort of the vertices by x per roadmap
(:attr:`Roadmap.x_order`).  The lines of that check that depend only on the
roadmap and the radius are cached on the roadmap too, and so is the plan
validator's own band table per radius (:attr:`Roadmap.edge_bands`).  The
radius check (:func:`radius_issues`), the edge list check
(:attr:`Roadmap.edge_issues`) and the start/goal assignment check
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
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from .geometry import EPS, Point2D, clearance_threshold, dist, segdist

if TYPE_CHECKING:
    from .validator import EdgeBands

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Canonical (undirected) form of an edge."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Roadmap:
    """Graph embedded in the plane: vertex coordinates plus undirected edges.

    ``edge_list`` keeps edges exactly as supplied (including any malformed
    entries) so that :func:`validate_roadmap` can report them; derived
    structures below assume a roadmap that passed validation.  Each is
    computed once and kept; none refers back to the roadmap, so an unused
    roadmap is freed at once, without the cyclic collector.  The caches
    filled by solves and validations (``interference_tables``, ``goal_hops``
    and ``edge_bands``) are left out of ``__init__``, ``repr`` and ``==``.
    """

    points: tuple[Point2D, ...]
    edge_list: tuple[tuple[int, int], ...]
    # The solver's InterferenceCache per agent radius, added by the first
    # solve at that radius and shared by every later one.
    interference_tables: dict[float, InterferenceCache] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # Per goal vertex, the hop distances of ``hops_to``.
    goal_hops: dict[int, array] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # The plan validator's own band table (``validator.EdgeBands``) per agent
    # radius, added by the first validation at that radius.
    edge_bands: dict[float, EdgeBands] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _separation_lines: dict[float, tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
    def edge_issues(self) -> tuple[str, ...]:
        """One line per edge to a missing vertex, self-loop and duplicate
        edge, in edge order; empty iff every edge joins two distinct
        vertices of the roadmap and no edge repeats."""
        n = self.n_vertices
        issues: list[str] = []
        seen: set[Edge] = set()
        for u, v in self.edge_list:
            if not (0 <= u < n and 0 <= v < n):
                issues.append(f"edge ({u}, {v}) references a missing vertex")
            elif u == v:
                issues.append(f"edge ({u}, {v}) is a self-loop")
            else:
                k = edge_key(u, v)
                if k in seen:
                    issues.append(f"duplicate edge ({k[0]}, {k[1]})")
                seen.add(k)
        return tuple(issues)

    @cached_property
    def vertex_issues(self) -> tuple[str, ...]:
        """One line per vertex with a non-finite coordinate, in id order."""
        return tuple([
            f"vertex {v} has non-finite coordinates ({x!r}, {y!r})"
            for v, (x, y) in enumerate(self.points)
            if not (math.isfinite(x) and math.isfinite(y))
        ])

    def separation_issues(self, radius: float) -> tuple[str, ...]:
        """One line per pair of finite vertices not strictly farther apart
        than ``2 * radius``, in ``(u, v)`` order, for a finite positive
        ``radius``; kept per radius.

        Only the pairs an x-sorted sweep finds within ``2r + 2 EPS`` of each
        other along both axes are tested.
        """
        lines = self._separation_lines.get(radius)
        if lines is None:
            limit = clearance_threshold(radius)
            margin = limit + EPS
            pts = self.points
            order, xs = self.x_order
            close = []
            for i, u in enumerate(order):
                x, y = pts[u]
                for v in order[i + 1 : bisect_right(xs, x + margin, i + 1)]:
                    if abs(pts[v][1] - y) <= margin and (d := dist(pts[u], pts[v])) <= limit:
                        close.append((min(u, v), max(u, v), d))
            lines = self._separation_lines[radius] = tuple([
                f"vertices {u} and {v} are {d:.9g} apart; "
                f"separation must exceed 2r = {2 * radius:.9g}"
                for u, v, d in sorted(close)
            ])
        return lines

    def hops_to(self, goal: int) -> array:
        """The hop distance from every vertex to ``goal`` over the whole
        roadmap, ``n_vertices`` where ``goal`` is unreachable; one BFS over
        :attr:`adjacency` on the first call per goal, kept in
        :attr:`goal_hops`.  Stored as an ``array`` of small unsigned ints:
        a dict or list per goal would take several times the memory."""
        hops = self.goal_hops.get(goal)
        if hops is None:
            n = len(self.points)
            adjacency = self.adjacency
            dist = [n] * n
            dist[goal] = 0
            frontier, k = [goal], 0
            while frontier:
                k += 1
                nxt = []
                for u in frontier:
                    for w in adjacency[u]:
                        if dist[w] == n:
                            dist[w] = k
                            nxt.append(w)
                frontier = nxt
            hops = self.goal_hops[goal] = array("H" if n < 1 << 16 else "L", dist)
        return hops


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


class InterferenceCache(dict):
    """Interference relation of one (roadmap, radius) pair: ``table[e]`` is
    edge ``e``'s band, every non-endpoint vertex whose occupation blocks
    traversal of ``e``.  The solver keeps one per radius in
    :attr:`Roadmap.interference_tables`, so it lives as long as its roadmap
    and serves every solve on it.

    A band is computed on its first lookup and stored, so ``len(table)`` is
    the number computed so far; a key that is not an edge gives None and is
    not stored.  Nothing maps a vertex to its edges.  The table copies the
    roadmap's edge set, points and x order rather than refer to the roadmap,
    which holds the table: a reference back would make a cycle.

    A vertex is in edge ``e``'s band when it is finite, not an endpoint of
    ``e``, lies in ``e``'s bounding box grown by ``2r + EPS`` plus ``EPS``
    against rounding (the x strip is found by bisecting the finite vertices
    sorted by x), and ``segdist`` puts it within ``2r + EPS`` of the segment:
    the blocked band is closed with tolerance, matching the strict ``> 2r``
    clearance the validator demands of transitions.
    """

    __slots__ = ("edge_set", "points", "x_order", "threshold")

    def __init__(self, roadmap: Roadmap, radius: float):
        super().__init__()
        self.edge_set = roadmap.edge_set
        self.points = roadmap.points
        self.x_order = roadmap.x_order
        self.threshold = clearance_threshold(radius)

    def __missing__(self, e: Edge) -> frozenset[int] | None:
        if e not in self.edge_set:
            return None
        threshold = self.threshold
        margin = threshold + EPS
        pts = self.points
        order, xs = self.x_order
        u, w = e
        a, b = pts[u], pts[w]
        (ax, ay), (bx, by) = a, b
        if bx < ax:  # swaps, not min and max: they cost a quarter as much
            ax, bx = bx, ax
        if by < ay:
            ay, by = by, ay
        ylo, yhi = ay - margin, by + margin
        band = self[e] = frozenset([
            v for v in order[bisect_left(xs, ax - margin):bisect_right(xs, bx + margin)]
            if ylo <= pts[v][1] <= yhi and v != u and v != w
            and segdist(pts[v], a, b) <= threshold
        ])
        return band


@dataclass(frozen=True)
class InstanceReport:
    """Outcome of :func:`validate_roadmap`: ok flag plus one line per violation."""

    ok: bool
    issues: tuple[str, ...]


def validate_roadmap(instance: Instance) -> InstanceReport:
    """Check every structural invariant of an instance, never raising.

    Reported violations:
      * a non-positive or non-finite radius, then non-finite coordinates
        (:attr:`Roadmap.vertex_issues`)
      * edges to missing vertices, self-loops and duplicate edges
        (:attr:`Roadmap.edge_issues`)
      * vertex pairs not strictly farther apart than ``2r``
        (:meth:`Roadmap.separation_issues`)
      * start/goal assignments out of range or non-injective
        (:func:`assignment_issues`)

    Only the radius and assignment lines are built on every call; the
    roadmap keeps the others.
    """
    rm = instance.roadmap
    r = instance.radius
    issues = radius_issues(r)
    radius_ok = not issues
    issues += rm.vertex_issues
    issues += rm.edge_issues
    if radius_ok:
        issues += rm.separation_issues(r)
    issues += assignment_issues(instance)
    return InstanceReport(ok=not issues, issues=tuple(issues))


def radius_issues(radius: float) -> list[str]:
    """One line if ``radius`` is not a positive finite number, else none."""
    if isinstance(radius, (int, float)) and math.isfinite(radius) and radius > 0:
        return []
    return [f"agent radius must be a positive finite number, got {radius!r}"]


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
