"""Solver for pathfinding with large disk agents on embedded roadmaps.

An agent traversing an edge collides with any stationary agent whose vertex
lies within ``2r`` of the swept segment, so an ``la`` traversal with an
agent in that band runs through ``Workspace.move_la`` and ``naive`` mode is
the baseline without it.  Interference that can be escaped only through the
traversal's target vertex cannot be undone: it is counted as a case-3
failure, and the solver is deliberately incomplete there.  The invariants
below are the ones the code does not show.

One workspace per solve.  ``solve`` builds one :class:`Workspace` and
starts every ordering with ``rollback(0)``, the exact undo every failure
uses, so each ordering starts from the instance's starts and ``ws.stats``
counts the whole call.  Every move goes through ``try_move``, which checks
the full transition, so a returned plan is valid by construction.

Lex paths come from first discoverers.  The one search, ``_Search``, is a
forward BFS over sorted adjacency in FIFO order, so each vertex's first
discoverer is its parent on its lexicographically smallest shortest path,
whatever the search's extent: one search of a view answers every path in
it, as a fresh reverse BFS from each target plus a greedy walk would.

Pruning.  The outer loop replans each agent's path toward its goal many
times a solve (``lex_shortest_path``), on a view of ``base`` that removes
the edges the pass has banned: a ban takes ``without`` of the pass's view,
a round that advances goes back to ``base``, and no other round builds a
view.  The roadmap keeps each goal's hop distances h (``Roadmap.hops_to``),
a BFS from the goal grown only until the source is settled: at D = h(src),
every vertex within D hops holds its h and every other one reads
``n_vertices``.  A roadmap hop distance is a lower
bound whatever is blocked or banned, so ``_hop_walk`` walks depth first over
sorted adjacency and enters a vertex at hop k only if h <= D - k: a path it
completes is a shortest one, and the first is the lexicographically
smallest, the full search's.  A vertex left without reaching the goal fails
again with any budget of hops no larger, so the walk records each one's
budget and tries each (vertex, budget) pair once.  When locked agents or
banned edges make every path longer than D, the walk runs once more at
D + 1, still exactly: from hop 1 on it needs h <= D, and every vertex within
D hops is settled.  At D + 2 it would need h <= D + 1, which an unsettled
vertex would fail wrongly, so a second miss runs the full BFS
(``_Search``) over that same view.

Blocked vertices.  ``_plan_agent``'s first pass blocks the locked agents'
goals, one set for the pass: each stands on its goal when the call starts,
no push enters the set and ``move_la`` moves only its mover on net.  The
second pass blocks nothing, so it may displace locked agents.

Termination.  Neither loop of the outer planner has a cap: each is
deterministic in a finite state and stops when that state repeats.  A round
of ``_plan_agent`` is fixed by the positions and the banned edges (the
locked agents and the pass are fixed); a round that starts from an earlier
round's pair rolls the plan back to where that round started, dropping the
cycle's moves (they have no net effect), and ends the pass.
``_solve_single_order``'s queue loop is fixed by the positions, the queue
and the order of ``locked``, which orders the re-queues.  Every cycle
re-queues, and the queue only shrinks in between, so the loop records that
triple after each re-queue and fails on a repeat.

Table lifetime.  The interference table lives on the roadmap, one per agent
radius (``Roadmap.interference_tables``), so every solve on the same
``Roadmap`` object shares it.  A band is computed the first time a move or a
search reaches its edge: a push's view masks the edges near a traversal
target (``GraphView.near``) only as its search reaches them, so a small
solve on a fresh dense roadmap computes a few percent of the bands.  The
time limit covers this work as it covers validation, whose roadmap-only
lines the roadmap keeps as well.
"""

from __future__ import annotations

import math
import random
import sys
import time
from collections import deque
from types import SimpleNamespace
from typing import AbstractSet, Callable, Iterator, NamedTuple, Sequence

from .model import (
    Edge,
    Instance,
    InterferenceCache,
    Move,
    Plan,
    Roadmap,
    edge_key,
    validate_roadmap,
)


INFO, DEBUG = 20, 10  # the levels of logging.INFO and logging.DEBUG


def log(name: str, level: int, msg: str, *args) -> None:
    """Hand ``msg % args`` at ``level`` to the logger ``name``, naming the
    caller as its origin, once some other code has imported :mod:`logging`:
    until then no handler or level exists, and the record is dropped."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).log(level, msg, *args, stacklevel=2)


LA = "la"
NAIVE = "naive"

SOLVED = "solved"
FAILED = "failed"
TIMEOUT = "timeout"

# Deepest nesting of ``move_la`` inside its own clearing pushes.
MAX_DEPTH = 8


class InvalidInstanceError(ValueError):
    """Raised when an instance fails validation before search starts."""

    def __init__(self, issues: Sequence[str]):
        super().__init__("invalid instance: " + "; ".join(issues))
        self.issues = tuple(issues)


class _TimeUp(Exception):
    pass


class _NaiveHalt(Exception):
    """Naive mode giving up on a geometrically blocked traversal."""


class SolverConfig(NamedTuple):
    mode: str = LA  # "la" | "naive"
    # "index", "perm:<comma-separated ids>", "random-restarts:<count>:<seed>"
    # (stops early once all k! orderings are tried), or a permutation tuple.
    order: str | tuple[int, ...] = "index"
    time_limit: float = 30.0


class SolveStats(SimpleNamespace):
    """Counters of one ``solve`` call, zero unless given by keyword.
    ``move_la_calls`` counts the calls of :meth:`Workspace.move_la`: a free
    step of the outer loop is one checked move and makes none.
    ``bands_computed`` counts the edge bands this call added to the
    roadmap's interference table: 0 when earlier solves on the same
    ``Roadmap`` object had computed every band it read.
    ``hop_tables_computed`` likewise counts the goals whose hop tables this
    call started in ``Roadmap.goal_hops``; a table an earlier solve started
    and this one grew further is not counted."""

    def __init__(self, **counts):
        super().__init__(
            elapsed=0.0,
            moves=0,
            move_la_calls=0,
            case3_failures=0,
            attempts=0,
            bands_computed=0,
            hop_tables_computed=0,
        )
        self.__dict__.update(counts)


class SolveResult(NamedTuple):
    status: str  # solved | failed | timeout
    plan: Plan | None
    stats: SolveStats


def reverse_plan(plan: Plan) -> Plan:
    """The move sequence that unwinds ``plan``: reversed order, endpoints swapped."""
    return [Move(m.agent, m.dst, m.src) for m in reversed(plan)]


class GraphView:
    """A roadmap with some edges masked out; vertices are never removed.

    An edge is masked when ``removed`` holds it, in either orientation, or
    when a vertex of ``near`` lies in its band.  ``bands`` is the
    :class:`InterferenceCache` the solve uses, so a band is read, and
    computed if no solve has yet, only when a search reaches an edge to a
    vertex it has not found.  The outer loop's bans are such views of the
    solve's ``base``, one ``without`` per banned edge.
    """

    __slots__ = ("roadmap", "removed", "near", "bands", "_masked")

    def __init__(
        self,
        roadmap: Roadmap,
        bands: InterferenceCache,
        removed: frozenset[Edge] = frozenset(),
        near: frozenset[int] = frozenset(),
    ):
        self.roadmap = roadmap
        self.removed = removed
        self.near = near
        self.bands = bands
        masked: dict[int, set[int]] = {}  # each end of a removed edge -> its other ends
        for u, v in removed:
            masked.setdefault(u, set()).add(v)
            masked.setdefault(v, set()).add(u)
        self._masked = masked

    def has_edge(self, u: int, v: int) -> bool:
        e = edge_key(u, v)
        if e not in self.roadmap.edge_set or v in self._masked.get(u, ()):
            return False
        return not self.near or self.near.isdisjoint(self.bands[e])

    def without(self, edges) -> "GraphView":
        return GraphView(self.roadmap, self.bands, self.removed.union(edges), self.near)

    def avoiding(self, v: int) -> "GraphView":
        """This view with every edge whose band holds ``v`` masked too."""
        return GraphView(self.roadmap, self.bands, self.removed, self.near | {v})


class _Search:
    """Forward BFS from ``src`` over ``view`` that never enters ``blocked``,
    grown one hop layer at a time on demand.  ``parent`` maps each vertex
    found to its predecessor (``src`` to itself); ``frontier`` is the last
    layer found, empty once the search is exhausted."""

    __slots__ = ("view", "blocked", "parent", "frontier")

    def __init__(self, view: GraphView, src: int, blocked: frozenset[int]):
        self.view = view
        self.blocked = blocked
        self.parent = {} if src in blocked else {src: src}
        self.frontier = tuple(self.parent)

    def next_layer(self) -> tuple[int, ...]:
        """Find and return the next hop layer, in discovery order.  An
        edge's band is tested last, so it is read only for an edge to a
        vertex not yet found, off ``blocked`` and not removed."""
        view = self.view
        near, bands, masked = view.near, view.bands, view._masked
        adjacency, parent, blocked, nxt = view.roadmap.adjacency, self.parent, self.blocked, []
        for u in self.frontier:
            gone = masked.get(u, ())
            for w in adjacency[u]:
                if w in parent or w in blocked or w in gone:
                    continue
                if not near or near.isdisjoint(bands[(u, w) if u < w else (w, u)]):
                    parent[w] = u
                    nxt.append(w)
        self.frontier = tuple(nxt)
        return self.frontier

    def path(self, dst: int) -> list[int] | None:
        """Shortest path to ``dst``, ties broken toward the lexicographically
        smallest vertex-id sequence, or None when ``dst`` is unreachable."""
        parent = self.parent
        while dst not in parent:
            if dst in self.blocked or not self.next_layer():
                return None
        path = [dst]
        while parent[dst] != dst:
            dst = parent[dst]
            path.append(dst)
        return path[::-1]


def _hop_walk(view: GraphView, hops, depth: int, src: int, dst: int, blocked):
    """The lex-first path of at most ``depth`` hops off ``blocked`` and the
    edges ``view`` removes whose vertex at hop k has ``hops`` <= ``depth - k``,
    or None: a depth-first walk over sorted adjacency that enters no vertex
    with a hop budget no larger than one it already failed with."""
    if src == dst:
        return [src]
    adjacency, masked = view.roadmap.adjacency, view._masked
    path, todo = [src], [iter(adjacency[src])]
    failed: dict[int, int] = {}  # vertex -> largest budget it failed with
    while todo:
        left = depth - len(path)  # hops left to dst after the next one
        gone = masked.get(path[-1], ())
        for w in todo[-1]:
            if hops[w] <= left and w not in blocked and w not in gone and failed.get(w, -1) < left:
                path.append(w)
                if w == dst:
                    return path
                todo.append(iter(adjacency[w]))
                break
        else:
            todo.pop()
            failed[path.pop()] = left + 1
    return None


def lex_shortest_path(
    view: GraphView, src: int, dst: int, blocked: AbstractSet[int]
) -> list[int] | None:
    """The lex shortest path off ``blocked`` on ``view``, a view with no
    ``near`` vertices, or None: a depth-first walk down the roadmap's hop
    distances to ``dst`` at depth D = h(src), again at D + 1, and only then
    a ``_Search`` of ``view`` (see the module docstring)."""
    hops = view.roadmap.hops_to(dst, src)
    depth = hops[src]
    if depth == len(hops) or src in blocked or dst in blocked:
        return None
    return (
        _hop_walk(view, hops, depth, src, dst, blocked)
        or _hop_walk(view, hops, depth + 1, src, dst, blocked)
        or _Search(view, src, blocked).path(dst)
    )


class Workspace:
    """Mutable solving context: agent positions, the accumulated plan, counters.

    Every mutation goes through :meth:`try_move`, which enforces full
    transition legality (edge exists, mover present, target free, no occupied
    interfering vertex), so whatever ends up in ``plan`` is valid from the
    instance start.  A plan length and ``rollback`` give exact transactional undo.
    ``bands`` is the roadmap's :class:`InterferenceCache` for the instance's
    radius, created here on the first workspace at that radius and read by
    indexing alone: a miss computes the band, and a non-edge gives None.
    The solve's base view holds it too, and every view derived from it reads
    it edge by edge.
    """

    def __init__(self, instance: Instance, *, mode: str = LA, deadline: float = math.inf):
        self.instance = instance
        tables = instance.roadmap.interference_tables
        bands = tables.get(instance.radius)
        if bands is None:
            bands = tables[instance.radius] = InterferenceCache(
                instance.roadmap, instance.radius
            )
        self.bands = bands
        self.mode = mode
        self.deadline = deadline
        self.pos: list[int] = list(instance.starts)
        self.at: dict[int, int] = {v: a for a, v in enumerate(instance.starts)}
        self.plan: list[Move] = []
        self.stats = SolveStats()

    # -- bookkeeping ------------------------------------------------------

    def rollback(self, mark: int) -> None:
        while len(self.plan) > mark:
            # Unpacked: a tuple unpack costs less than three field reads.
            agent, src, dst = self.plan.pop()
            del self.at[dst]
            self.at[src] = agent
            self.pos[agent] = src

    def check_time(self) -> None:
        if time.monotonic() > self.deadline:
            raise _TimeUp()

    # -- checked moves ----------------------------------------------------

    def try_move(self, agent: int, u: int, v: int) -> bool:
        if self.pos[agent] != u or v in self.at:
            return False
        interferers = self.bands[edge_key(u, v)]
        if interferers is None:  # not an edge of the roadmap
            return False
        at = self.at
        for w in interferers:
            if w in at:
                return False
        del at[u]
        at[v] = agent
        self.pos[agent] = v
        self.plan.append(Move(agent, u, v))
        return True

    @property
    def step(self) -> Callable[..., bool]:
        """The single-edge traversal of ``mode``: ``move_la``, or a plain move
        that halts the attempt when blocked.  Stored on the instance instead,
        the bound method would make each Workspace a reference cycle that
        only the cyclic garbage collector frees."""
        return self._naive_step if self.mode == NAIVE else self.move_la

    def _naive_step(self, view: GraphView, u: int, v: int, *_) -> bool:
        """Apply the traversal iff it is valid as-is; no clearing attempted."""
        agent = self.at.get(u)
        if agent is not None and self.try_move(agent, u, v):
            return True
        raise _NaiveHalt()

    # -- clearing procedures ----------------------------------------------

    def move_la(self, view: GraphView, v_from: int, v_to: int, depth: int = 1) -> bool:
        """Traverse ``(v_from, v_to)`` with whoever stands on ``v_from``,
        temporarily relocating interfering agents and restoring them after.
        Every relocation keeps off the edges near the targets of the
        enclosing traversals, the vertices of ``view.near``.

        On success the plan gained a valid subsequence whose net effect moves
        only the traversing agent; on failure state and plan are untouched.
        """
        self.check_time()
        self.stats.move_la_calls += 1
        if depth > MAX_DEPTH:
            return False
        if not view.has_edge(v_from, v_to):
            return False
        agent = self.at.get(v_from)
        if agent is None or v_to in self.at:
            return False
        if self.try_move(agent, v_from, v_to):
            return True  # nothing in the band: the clearing would move no one
        entry = len(self.plan)
        rev = self.reversable_edge_cleaning(view, v_from, v_to, depth)
        if rev is None:
            self.stats.case3_failures += 1
            return False
        if not self.try_move(agent, v_from, v_to):
            self.rollback(entry)
            return False
        for m in rev:
            if not self.try_move(m.agent, m.src, m.dst):
                self.rollback(entry)
                return False
        return True

    def reversable_edge_cleaning(
        self, view: GraphView, v_from: int, v_to: int, depth: int
    ) -> Plan | None:
        """Clear every occupied interfering vertex of ``(v_from, v_to)``.

        Applies the clearing moves in place and returns the restore plan
        (already reversed, mover's own moves excluded), which puts every
        relocated agent back once executed after the traversal.  Rolls back
        and returns None at the first vertex that cannot be cleared, which
        is the unresolved-interference case the algorithm does not handle.
        """
        entry = len(self.plan)
        mover = self.at[v_from]
        edge = (v_from, v_to)
        rev_acc: list[Move] = []
        not_cleared: list[int] = []

        band = self.bands[edge_key(v_from, v_to)]
        for v_p in sorted(v for v in band if v in self.at):
            seg_start = len(self.plan)
            if self.push_to_empty(view, v_p, edge, depth):
                rev_acc.extend(m for m in self.plan[seg_start:] if m.agent != mover)
            else:
                not_cleared.append(v_p)

        for v_p in not_cleared:
            if v_p in self.at:
                ret = self.push_through_v_from(view, v_p, edge, depth)
                if ret is None:
                    log(__name__, DEBUG, "edge %s: vertex %d not cleared", edge, v_p)
                    self.rollback(entry)
                    return None
                rev_acc.extend(m for m in ret if m.agent != mover)
        return reverse_plan(rev_acc)

    def push_to_empty(
        self, view: GraphView, v_prime: int, edge: tuple[int, int], depth: int
    ) -> bool:
        """Walk the agent on ``v_prime`` to some empty vertex that does not
        interfere with ``edge``, avoiding both endpoints and every edge the
        target endpoint interferes with; the view tests each edge for that
        when the search reaches it."""
        v_from, v_to = edge
        g = view.avoiding(v_to)
        band = self.bands[edge_key(v_from, v_to)]
        return self._push_off(g, v_prime, g.near | {v_from}, band, depth)

    def push_along_path(
        self, view: GraphView, path: Sequence[int], depth: int
    ) -> Edge | None:
        """Shift the agents sitting on ``path`` one occupied slot toward its
        tail, last agent first; the tail must be empty.

        Frees the head; path vertices that were empty stay empty.  Each
        individual shift is a ``step`` over ``view`` one level deeper.
        Returns None on success, else the edge whose traversal failed (state
        restored).
        """
        entry = len(self.plan)
        occupied_idx = [i for i, v in enumerate(path) if v in self.at]
        target = len(path) - 1
        for i in reversed(occupied_idx):
            for j in range(i, target):
                if not self.step(view, path[j], path[j + 1], depth + 1):
                    failed = (path[j], path[j + 1])
                    self.rollback(entry)
                    return failed
            target = i
        return None

    def push_through_v_from(
        self, view: GraphView, v_prime: int, edge: tuple[int, int], depth: int
    ) -> Plan | None:
        """Clear ``v_prime`` when its only escape runs through ``v_from``:
        sidestep the mover to a neighbour, walk the interferer out through
        the vacated vertex, then walk the mover back.

        Returns the subsequence that must be replayed in reverse after the
        traversal to restore the relocated agents (the mover's sidestep is
        already undone inline and excluded), or None with state restored.
        ``v_prime`` must be occupied and the mover must stand on ``v_from``.
        """
        self.check_time()
        v_from, v_to = edge
        a_prime = self.at[v_prime]
        occupied_at_entry = frozenset(self.at)
        band = self.bands[edge_key(v_from, v_to)]
        g_clear = view.avoiding(v_to)
        # The mover sidesteps with the traversal edge itself masked out; the
        # sidestep may brush the traversal target since it is undone before
        # the traversal happens.
        g_no_e = view.without((edge_key(v_from, v_to),))

        for n_v in view.roadmap.adjacency[v_from]:
            if n_v in view.near or n_v == v_prime or not view.has_edge(v_from, n_v):
                continue
            entry_n = len(self.plan)
            if n_v in self.at and not self._push_off(
                g_clear, n_v, g_clear.near | {v_from, v_prime}, band, depth
            ):
                continue
            pi_clear_n = list(self.plan[entry_n:])

            entry_side = len(self.plan)
            if not self.move_la(g_no_e, v_from, n_v, depth + 1):
                self.rollback(entry_n)
                continue
            pi_side = list(self.plan[entry_side:])
            touched = {v for m in pi_side for v in (m.src, m.dst)}
            side_band = self.bands[edge_key(v_from, n_v)]
            avoid = occupied_at_entry | band | touched | side_band
            hold = g_clear.near | {self.pos[m.agent] for m in pi_side}

            entry_push = len(self.plan)
            if not self._push_off(g_clear, v_prime, hold, avoid, depth):
                self.rollback(entry_n)
                continue
            pi_escape = list(self.plan[entry_push:])

            # Walk the mover (and anything its sidestep disturbed) back;
            # the escaped interferer's own sidestep moves, if any, stay out.
            for m in reversed([m for m in pi_side if m.agent != a_prime]):
                if not self.try_move(m.agent, m.dst, m.src):
                    self.rollback(entry_n)
                    break
            else:
                return pi_clear_n + pi_escape
        return None

    def _push_off(
        self,
        g: GraphView,
        src: int,
        path_blocked: frozenset[int],
        avoid: AbstractSet[int],
        depth: int,
    ) -> bool:
        """Try empty target vertices outside ``avoid`` nearest-first, pushing
        the chain from ``src`` along each one's path with ``push_along_path``
        at ``depth``; on a chain failure mask the failing edge and search the
        path again before giving the target up.  Every chain move runs over
        a view of ``g``, so it keeps off the edges near ``g.near``.

        Paths never enter ``path_blocked``.  Targets come from a search of
        ``g`` by ``(hops, id)``; paths from a search of the current view, so
        ``g``'s own until a push fails, then one per masked view.  A failed
        push is rolled back and masks an edge of its path, so at most one
        push per edge of ``g`` fails.  Targets stop once the masked search
        is exhausted and all it reached was offered.  Returns whether a push
        succeeded.
        """
        targets = search = _Search(g, src, path_blocked)
        while search.frontier or any(v not in targets.parent for v in search.parent):
            layer = targets.next_layer()
            if not layer:
                return False
            for eps in sorted(layer):
                if eps in self.at or eps in avoid:
                    continue
                while (path := search.path(eps)) is not None:
                    attempt = len(self.plan)
                    failed = self.push_along_path(search.view, path, depth)
                    if failed is None:
                        return True
                    self.rollback(attempt)
                    search = _Search(search.view.without((failed,)), src, path_blocked)
        return False


# -- outer loop -------------------------------------------------------------


def check_instance(instance: Instance) -> None:
    """Raise :class:`InvalidInstanceError` if ``validate_roadmap`` finds issues."""
    report = validate_roadmap(instance)
    if not report.ok:
        raise InvalidInstanceError(report.issues)


def solve(instance: Instance, config: SolverConfig | None = None) -> SolveResult:
    """Run the prioritized outer loop under ``config``; see module docstring.

    Raises :class:`InvalidInstanceError` on malformed instances.  The result
    status is ``solved`` (plan attached), ``failed`` (all orderings
    exhausted), or ``timeout``.  The time limit and ``stats.elapsed`` cover
    the whole call, validation and the bands computed during the search
    included.  The interference table is the roadmap's own for this radius,
    built on the first solve at that radius; ``stats.bands_computed`` counts
    the bands this call added to it, and ``stats.hop_tables_computed`` the
    goals' hop tables it started on the roadmap.
    """
    config = config or SolverConfig()
    if config.mode not in (LA, NAIVE):
        raise ValueError(f"unknown mode {config.mode!r}")
    if not (math.isfinite(config.time_limit) and config.time_limit > 0):
        raise ValueError("time_limit must be positive and finite")
    t0 = time.monotonic()
    check_instance(instance)
    ws = Workspace(instance, mode=config.mode, deadline=t0 + config.time_limit)
    stats, bands, goal_hops = ws.stats, ws.bands, instance.roadmap.goal_hops
    held, hops_held = len(bands), len(goal_hops)

    def finish(status: str, plan: Plan | None) -> SolveResult:
        stats.elapsed = time.monotonic() - t0
        stats.moves = len(plan) if plan is not None else 0
        stats.bands_computed = len(bands) - held
        stats.hop_tables_computed = len(goal_hops) - hops_held
        log(
            __name__, INFO,
            "solve: %s after %d attempt(s), %.1f ms, %d move-la calls, "
            "%d goal hop tables computed, "
            "%d edge bands held from earlier solves, %d of %d edge bands computed",
            status,
            stats.attempts,
            stats.elapsed * 1e3,
            stats.move_la_calls,
            stats.hop_tables_computed,
            held,
            stats.bands_computed,
            instance.roadmap.n_edges,
        )
        return SolveResult(status, plan, stats)

    for order in _orderings(config, instance.n_agents):
        ws.rollback(0)
        stats.attempts += 1
        try:
            if _solve_single_order(ws, order):
                return finish(SOLVED, list(ws.plan))
        except _NaiveHalt:
            pass
        except _TimeUp:
            return finish(TIMEOUT, None)
    return finish(FAILED, None)


def _orderings(config: SolverConfig, k: int) -> Iterator[tuple[int, ...]]:
    order = config.order
    identity = tuple(range(k))
    if order == "index":
        order = identity
    elif isinstance(order, str) and order.startswith("perm:"):
        order = tuple(int(t) for t in order[len("perm:") :].split(",") if t != "")
    if isinstance(order, (tuple, list)):
        perm = tuple(order)
        if sorted(perm) != list(identity):
            raise ValueError(f"{perm!r} is not a permutation of 0..{k - 1}")
        yield perm
        return
    if order.startswith("random-restarts:"):
        parts = order.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed order spec {order!r}")
        count, seed = int(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("restart count must be >= 1")
        rng = random.Random(seed)
        seen = {identity}
        yield identity
        distinct = math.factorial(k)
        for _ in range(count - 1):
            if len(seen) == distinct:  # every ordering tried: only repeats remain
                return
            perm = list(identity)
            rng.shuffle(perm)
            t = tuple(perm)
            if t not in seen:
                seen.add(t)
                yield t
        return
    raise ValueError(f"unknown order spec {order!r}")


def _solve_single_order(ws: Workspace, order: tuple[int, ...]) -> bool:
    instance = ws.instance
    base = GraphView(instance.roadmap, ws.bands)
    locked: dict[int, int] = {}  # finished agent -> its goal vertex
    queue = deque(order)
    seen: set[tuple] = set()  # loop states after a re-queue: see the module docstring
    while queue:
        ws.check_time()
        agent = queue.popleft()
        if not _plan_agent(ws, base, agent, frozenset(locked.values())):
            return False
        locked[agent] = instance.goals[agent]
        displaced = [a for a, v in locked.items() if ws.pos[a] != v]
        for a in displaced:
            del locked[a]
            queue.append(a)
        if displaced:
            key = (tuple(ws.pos), tuple(queue), tuple(locked))
            if key in seen:
                log(__name__, DEBUG, "outer loop state repeated: agents %s re-queued",
                    displaced)
                return False
            seen.add(key)
    return True


def _plan_agent(
    ws: Workspace,
    base: GraphView,
    agent: int,
    locked_goals: frozenset[int],
) -> bool:
    goal = ws.instance.goals[agent]
    for hard in (locked_goals, frozenset()):
        view = base  # base without the edges this pass has banned
        seen: dict[tuple, int] = {}  # state -> plan length: see the module docstring
        while ws.pos[agent] != goal:
            key = (tuple(ws.pos), view.removed)
            if key in seen:
                log(__name__, DEBUG, "agent %d at vertex %d: cycle cut, %d moves dropped",
                    agent, ws.pos[agent], len(ws.plan) - seen[key])
                ws.rollback(seen[key])
                break
            seen[key] = len(ws.plan)
            ws.check_time()
            path = lex_shortest_path(view, ws.pos[agent], goal, hard)
            if path is None:
                break
            # The first step starts at the agent's own vertex, so every round
            # either advances or bans an edge.
            advanced = False
            for i in range(len(path) - 1):
                u, v = path[i], path[i + 1]
                if v in ws.at:
                    protect = frozenset(path[i + 1 :])
                    if not _outer_push(ws, base, v, u, protect, hard):
                        view = view.without((edge_key(u, v),))
                        break
                    advanced = True  # occupancy changed even if the mover moved back
                    if ws.pos[agent] != u or v in ws.at:
                        break
                # ``base`` masks nothing and ``v`` is free, so this checked
                # move is the one ``move_la`` and the naive step each try
                # first; ``step`` runs only when the band holds an agent.
                if not (ws.try_move(agent, u, v) or ws.step(base, u, v)):
                    view = view.without((edge_key(u, v),))
                    break
                advanced = True
            if advanced:
                view = base
        if ws.pos[agent] == goal:
            return True
    log(__name__, DEBUG, "agent %d given up at vertex %d, goal %d", agent, ws.pos[agent], goal)
    return False


def _outer_push(
    ws: Workspace,
    base: GraphView,
    head: int,
    mover_vertex: int,
    protect: frozenset[int],
    hard: frozenset[int],
) -> bool:
    """Permanently shove the chain starting at ``head`` into empty vertices,
    clearing ``head`` for the advancing agent.

    Escapes are tried in degrading tiers: first fully off the advancing
    agent's remaining path, then merely avoiding its current vertex, finally
    anywhere.  The last tier may run the chain through the advancing agent,
    shoving it backwards too; the caller notices its new position and
    replans.  No chain enters ``hard``, the pass's blocked vertices: the
    locked agents' goals in the first pass, none in the second.
    """
    tried: list[frozenset[int]] = []  # a tier equal to a failed one is skipped
    for avoid in ((protect, (mover_vertex,)), ((mover_vertex,),), ()):
        key = hard.union(*avoid) - {head}
        if key not in tried:
            if ws._push_off(base, head, key, frozenset(), 0):
                return True
            tried.append(key)
    return False
