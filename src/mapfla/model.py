"""Data model: roadmaps embedded in the plane, problem instances, agent states,
moves, and the edge/vertex interference relation.

The relation is computed one edge's band at a time on first lookup by
:class:`InterferenceCache`; it has no map from a vertex to its edges.  A
roadmap keeps one table per agent radius (:attr:`Roadmap.interference_tables`),
so every solve on the same ``Roadmap`` object shares the bands earlier solves
computed, and each goal's hop distances (:meth:`Roadmap.hops_to`) for the
solver's outer-loop path search, a BFS per goal grown only as far as a
search has needed.  The band test and the separation check of
:func:`validate_roadmap` share one sort of the vertices by x per roadmap
(:attr:`Roadmap.x_order`).  The lines of that check that depend only on the
roadmap and the radius are cached on the roadmap too, and so is the plan
validator's own band table per radius (:attr:`Roadmap.edge_bands`).  The
radius check (:func:`radius_issues`), the edge list check
(:attr:`Roadmap.edge_issues`) and the start/goal assignment check
(:func:`assignment_issues`) serve roadmap validation, the plan validator and
the oracle.  One method fills the edge list check, the edge set, the
adjacency, the x order and the coordinate check together, on the first read
of any of them.

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
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .geometry import EPS, Point2D, clearance_threshold, dist, segdist

if TYPE_CHECKING:
    from .validator import EdgeBands

Edge = tuple[int, int]
# The names under which ``Roadmap._tables`` stores its five tables, in order.
_TABLES = ("edge_set", "adjacency", "edge_issues", "x_order", "vertex_issues")


def edge_key(u: int, v: int) -> Edge:
    """Canonical (undirected) form of an edge."""
    return (u, v) if u <= v else (v, u)


class Roadmap:
    """Graph embedded in the plane: vertex coordinates plus undirected edges.

    ``edge_list`` keeps edges exactly as supplied (including any malformed
    entries) so that :func:`validate_roadmap` can report them; derived
    structures below assume a roadmap that passed validation.  Each is
    computed once and kept; none refers back to the roadmap, so an unused
    roadmap is freed at once, without the cyclic collector.

    A roadmap is immutable: assigning to an attribute raises.  Only
    ``points`` and ``edge_list`` are passed in, shown by ``repr`` and
    compared by ``==`` and ``hash``.  The caches filled by solves and
    validations (``interference_tables``, ``goal_hops`` and ``edge_bands``)
    start empty, and a pickled roadmap takes its caches and tables along.
    """

    points: tuple[Point2D, ...]
    edge_list: tuple[tuple[int, int], ...]
    # The solver's InterferenceCache per agent radius, added by the first
    # solve at that radius and shared by every later one.
    interference_tables: dict[float, InterferenceCache]
    # Per goal vertex, the BFS of ``hops_to``: its distance list, last layer
    # and depth; the last layer is empty once the BFS is exhausted.
    goal_hops: dict[int, tuple[list[int], list[int], int]]
    # The plan validator's own band table (``validator.EdgeBands``) per agent
    # radius, added by the first validation at that radius.
    edge_bands: dict[float, EdgeBands]
    _separation_lines: dict[float, tuple[str, ...]]

    def __init__(
        self, points: tuple[Point2D, ...], edge_list: tuple[tuple[int, int], ...]
    ):
        # Written past ``__setattr__``, as ``cached_property`` writes its values.
        self.__dict__.update(
            points=points,
            edge_list=edge_list,
            interference_tables={},
            goal_hops={},
            edge_bands={},
            _separation_lines={},
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to Roadmap.{name}: a roadmap is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.points, self.edge_list) == (other.points, other.edge_list)

    def __hash__(self) -> int:
        return hash((self.points, self.edge_list))

    def __repr__(self) -> str:
        return f"Roadmap(points={self.points!r}, edge_list={self.edge_list!r})"

    @property
    def n_vertices(self) -> int:
        return len(self.points)

    @property
    def n_edges(self) -> int:
        return len(self.edge_set)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        """Every edge's canonical key but self-loops', edges to missing
        vertices included."""
        return self._tables()[0]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours in increasing id order, over the edges
        that join two distinct vertices of the roadmap."""
        return self._tables()[1]

    @cached_property
    def edge_issues(self) -> tuple[str, ...]:
        """One line per edge to a missing vertex, self-loop and duplicate
        edge, in edge order; empty iff every edge joins two distinct
        vertices of the roadmap and no edge repeats."""
        return self._tables()[2]

    @cached_property
    def x_order(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Ids of the finite vertices sorted by x, ties in id order, and
        their x coordinates."""
        return self._tables()[3]

    @cached_property
    def vertex_issues(self) -> tuple[str, ...]:
        """One line per vertex with a non-finite coordinate, in id order."""
        return self._tables()[4]

    def _tables(self) -> tuple:
        """``edge_set``, ``adjacency``, ``edge_issues``, ``x_order`` and
        ``vertex_issues`` from one pass over the edge list and one over the
        points, all five stored at once, so the first of them read is the
        only one whose descriptor runs."""
        pts = self.points
        n = len(pts)
        keys: set[Edge] = set()
        nbrs: list[list[int]] = [[] for _ in range(n)]
        edge_issues: list[str] = []
        for e in self.edge_list:
            u, v = k = e
            if u > v:  # a canonical edge is its own key: no new tuple
                u, v = k = v, u
            if u < 0 or v >= n:
                edge_issues.append(f"edge ({e[0]}, {e[1]}) references a missing vertex")
                if u != v:
                    keys.add(k)
            elif u == v:
                edge_issues.append(f"edge ({u}, {v}) is a self-loop")
            elif k in keys:
                edge_issues.append(f"duplicate edge ({u}, {v})")
            else:
                keys.add(k)
                nbrs[u].append(v)
                nbrs[v].append(u)
        for s in nbrs:
            s.sort()
        isfinite = math.isfinite
        order: list[int] = []
        vertex_issues: list[str] = []
        for v, (x, y) in enumerate(pts):
            if isfinite(x) and isfinite(y):
                order.append(v)
            else:
                vertex_issues.append(f"vertex {v} has non-finite coordinates ({x!r}, {y!r})")
        # A stable sort keyed by a bound method: equal x stay in id order,
        # and no Python-level key function runs.
        xs = [p[0] for p in pts]
        order.sort(key=xs.__getitem__)
        tables = (
            frozenset(keys), tuple(map(tuple, nbrs)), tuple(edge_issues),
            (tuple(order), tuple(map(xs.__getitem__, order))), tuple(vertex_issues),
        )
        self.__dict__.update(zip(_TABLES, tables))
        return tables

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
            ys = [pts[v][1] for v in order]
            close = []
            for i, u in enumerate(order):
                p = pts[u]
                ylo, yhi = p[1] - margin, p[1] + margin
                for j in range(i + 1, bisect_right(xs, p[0] + margin, i + 1)):
                    if ylo <= ys[j] <= yhi and (d := dist(p, pts[v := order[j]])) <= limit:
                        close.append((u, v, d) if u < v else (v, u, d))
            lines = self._separation_lines[radius] = tuple([
                f"vertices {u} and {v} are {d:.9g} apart; "
                f"separation must exceed 2r = {2 * radius:.9g}"
                for u, v, d in sorted(close)
            ])
        return lines

    def hops_to(self, goal: int, src: int | None = None) -> list[int]:
        """The hop distance from every vertex to ``goal``, ``n_vertices``
        where it is not known to be finite, by a BFS over :attr:`adjacency`
        kept in :attr:`goal_hops` and grown only as far as a call needs.

        With ``src``, the BFS grows whole layers until ``src`` is settled or
        the BFS is exhausted: if ``src`` is at depth D, every vertex within D
        hops of ``goal`` then holds its distance, and every other one reads
        ``n_vertices``.  Without ``src``, the BFS is finished.  The list
        returned is the table's own, and a BFS grows in place, so two threads
        must not search one roadmap at once.
        """
        hops = self.goal_hops.get(goal)
        n = len(self.points)
        if hops is None:
            dist = [n] * n
            dist[goal] = 0
            hops = self.goal_hops[goal] = dist, [goal], 0
        dist, frontier, k = hops
        if not frontier or src is not None and dist[src] < n:
            return dist
        adjacency = self.adjacency
        while frontier and (src is None or dist[src] == n):
            k += 1
            nxt = []
            for u in frontier:
                for w in adjacency[u]:
                    if dist[w] == n:
                        dist[w] = k
                        nxt.append(w)
            frontier = nxt
        self.goal_hops[goal] = dist, frontier, k
        return dist


class Instance(NamedTuple):
    """A solvable-or-not problem: roadmap, agent radius, start and goal vertices."""

    roadmap: Roadmap
    radius: float
    starts: tuple[int, ...]
    goals: tuple[int, ...]

    @property
    def n_agents(self) -> int:
        return len(self.starts)


class State(NamedTuple):
    """Injective assignment of agents to vertices; ``positions[i]`` is agent i's vertex."""

    positions: tuple[int, ...]


class Move(NamedTuple):
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


class InstanceReport(NamedTuple):
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
