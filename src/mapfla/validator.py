"""Independent plan checker.

This module is the arbiter for every other component: it shares nothing with
the solver and never consults the solver's interference table, so a solver
bug cannot hide behind a table bug.  All it takes from the data model besides
its types and ``edge_key`` are the radius, edge list and start/goal
assignment checks, :func:`~mapfla.model.radius_issues`,
:attr:`~mapfla.model.Roadmap.edge_issues` and
:func:`~mapfla.model.assignment_issues`, and a place to keep its band table,
:attr:`~mapfla.model.Roadmap.edge_bands`.  A transition is valid iff the
mover actually sits on the edge's source vertex, the edge exists, the target
is free, and every other agent keeps a strictly-greater-than-``2r`` distance
to the swept segment.

The band table is kept on the roadmap, one per radius, and serves every
validation and the oracle at that radius: the first time an edge is asked
about, the table runs its own ``segdist`` over the vertices in the edge's
bounding box grown by ``2r`` (found in a list of the finite vertices sorted
by x) and keeps those within ``2r`` of the segment.  Later moves along that
edge only test whether the target or one of those vertices is occupied.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .geometry import EPS, clearance_threshold, segdist
from .model import Edge, Instance, Move, Plan, State, edge_key
from .model import assignment_issues, radius_issues


class EdgeBands(dict):
    """Vertex pair -> non-endpoint vertices within ``2r`` of its segment.
    ``table[(u, w)]`` with ``u <= w`` computes a band on its first lookup
    and stores it, so ``len(table)`` counts the bands computed;
    ``table(u, w)`` answers a pair in either order.  Any pair has a band,
    an edge or not.  The roadmap keeps one table per radius (see
    :func:`edge_bands`), so the table copies the points and the edge set
    rather than refer to the roadmap: a reference back would make a cycle."""

    __slots__ = ("points", "edge_set", "_threshold", "_order", "_xs")

    def __init__(self, instance: Instance) -> None:
        super().__init__()
        self.points = pts = instance.roadmap.points
        self.edge_set = instance.roadmap.edge_set
        self._threshold = clearance_threshold(instance.radius)
        # Only finite vertices: a NaN x breaks the sort the strips bisect,
        # and a non-finite vertex is never within 2r (segdist is NaN or inf).
        # ``c - c == 0`` holds exactly for finite c.
        self._order = sorted(
            (v for v, (x, y) in enumerate(pts) if x - x == 0 and y - y == 0),
            key=lambda v: pts[v][0],
        )
        self._xs = [pts[v][0] for v in self._order]

    def __call__(self, u: int, w: int) -> frozenset[int]:
        return self[edge_key(u, w)]

    def __missing__(self, key: Edge) -> frozenset[int]:
        u, w = key
        pts, threshold = self.points, self._threshold
        a, b = pts[u], pts[w]
        # A vertex outside the edge's bounding box grown by the threshold
        # is farther than it from the segment; EPS absorbs rounding.
        margin = threshold + EPS
        lo = bisect_left(self._xs, min(a[0], b[0]) - margin)
        hi = bisect_right(self._xs, max(a[0], b[0]) + margin)
        ylo, yhi = min(a[1], b[1]) - margin, max(a[1], b[1]) + margin
        band = self[key] = frozenset(
            v
            for v in self._order[lo:hi]
            if ylo <= pts[v][1] <= yhi and v != u and v != w
            and segdist(pts[v], a, b) <= threshold
        )
        return band


def edge_bands(instance: Instance) -> EdgeBands:
    """The band table the roadmap keeps for ``instance``'s radius, which
    must be positive and finite (a NaN key would never be found again)."""
    tables = instance.roadmap.edge_bands
    bands = tables.get(instance.radius)
    if bands is None:
        bands = tables[instance.radius] = EdgeBands(instance)
    return bands


def instance_issues(instance: Instance) -> list[str]:
    """The radius, edge list and start/goal assignment lines that make
    ``instance`` unfit to replay a plan on; empty iff there are none."""
    return [
        *radius_issues(instance.radius),
        *instance.roadmap.edge_issues,
        *assignment_issues(instance),
    ]


def is_valid_transition(state: State, move: Move, instance: Instance) -> bool:
    """True iff replacing ``state`` by applying ``move`` is a legal transition."""
    if radius_issues(instance.radius):
        return False
    occupant = {v: agent for agent, v in enumerate(state.positions)}
    bands = edge_bands(instance)
    return _transition_error(state.positions, occupant, *move, bands) is None


def _transition_error(
    positions, occupant, agent: int, src: int, dst: int, bands: EdgeBands
) -> str | None:
    """Why the move of ``agent`` from ``src`` to ``dst`` is illegal, naming
    the lowest-indexed agent in its way.  A move comes in unpacked: a tuple
    unpack costs less than reading its fields by name."""
    if not 0 <= agent < len(positions):
        return f"no agent {agent}"
    if positions[agent] != src:
        return f"agent {agent} is at vertex {positions[agent]}, not {src}"
    key = edge_key(src, dst)
    if key not in bands.edge_set:
        return f"no edge between {src} and {dst}"
    band = bands[key]
    if dst not in occupant and occupant.keys().isdisjoint(band):
        return None
    other = min(occupant[v] for v in (dst, *band) if v in occupant)
    if positions[other] == dst:
        return f"target vertex {dst} occupied by agent {other}"
    return (
        f"agent {other} at vertex {positions[other]} is within 2r of "
        f"edge ({src}, {dst})"
    )


class PlanReport(NamedTuple):
    """First-failure report from :func:`validate_plan`.

    ``failed_index`` is the offending move's position, ``len(plan)`` when
    the replay succeeded but the terminal state misses the goal, or ``0``
    with a reason starting ``invalid instance:`` when the radius is not
    positive and finite, an edge is a self-loop, a duplicate or has an
    endpoint outside ``0..|V|-1``, or the start/goal assignment is
    malformed, and nothing was replayed.
    """

    ok: bool
    failed_index: int | None = None
    reason: str | None = None


def validate_plan(instance: Instance, plan: Plan) -> PlanReport:
    """Replay ``plan`` from the instance start; ok iff every transition is
    valid and the terminal state places every agent on its goal."""
    issues = instance_issues(instance)
    if issues:
        return PlanReport(
            ok=False, failed_index=0, reason=f"invalid instance: {issues[0]}"
        )
    positions = list(instance.starts)
    occupant = {v: agent for agent, v in enumerate(positions)}
    bands = edge_bands(instance)
    for i, (agent, src, dst) in enumerate(plan):
        err = _transition_error(positions, occupant, agent, src, dst, bands)
        if err is not None:
            return PlanReport(ok=False, failed_index=i, reason=f"move {i}: {err}")
        positions[agent] = dst
        occupant[dst] = occupant.pop(src)
    for agent, goal in enumerate(instance.goals):
        if positions[agent] != goal:
            return PlanReport(
                ok=False,
                failed_index=len(plan),
                reason=(
                    f"goal not reached: agent {agent} ended at vertex "
                    f"{positions[agent]}, goal is {goal}"
                ),
            )
    return PlanReport(ok=True)
