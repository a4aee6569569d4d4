"""Solver for pathfinding with large disk agents on embedded roadmaps.

An agent traversing an edge collides with any stationary agent whose vertex
lies within ``2r`` of the swept segment, so ordinary pebble-motion planning is
not enough: before a traversal, nearby agents may have to be walked away and
afterwards walked back.  The machinery here realizes every single-edge
traversal through ``move_la``, which:

1. clears each occupied interfering vertex of the edge, recording the moves
   needed to undo the clearing (``reversable_edge_cleaning``):

   * ``push_to_empty`` walks the interferer (and any agents in its way, as a
     chain) to an empty non-interfering vertex, avoiding both edge endpoints
     and every edge the target endpoint interferes with, so the recorded
     moves stay replayable after the traversal;
   * when that fails because the only escape runs through the mover's own
     vertex, ``push_through_v_from`` first sidesteps the mover to a
     neighbouring vertex, lets the interferer escape through the vacated
     vertex, then walks the mover back;

2. performs the traversal;
3. replays the recorded moves in reverse, restoring every other agent.

Interference that is escapable only through the traversal's target vertex (or
edges that vertex interferes with) cannot be undone this way; such cases are
detected, counted, and reported as failure; the solver is deliberately
incomplete there.

The outer loop is a prioritized push-style pebble planner: agents walk
shortest paths to their goals one at a time, shoving blocking agents into
empty vertices (each shove itself made of ``move_la`` traversals), locking
finished agents in place, and, as a last resort, displacing locked agents
and re-planning them afterwards.  Agent order matters; ``random-restarts``
retries failed instances under shuffled orders.  ``naive`` mode is the same
loop with a plain single-edge step (``Workspace.step``) in place of
``move_la``: it clears no interference, and a blocked traversal halts the
attempt.  It is the baseline the benchmark harness compares against.

Every push needs the nearest empty vertex and a lexicographically smallest
shortest path to it.  Both come from one forward BFS from the pushed vertex,
expanded a hop layer at a time and only as far as targets are consumed;
targets come out by ``(hops, id)``.  The adjacency is sorted and the queue is
FIFO, so each layer is discovered in the lexicographic order of its vertices'
smallest paths, and each vertex's first discoverer is its parent on its
lexicographically smallest shortest path: the parent map yields the very
paths a reverse BFS from the target plus a greedy walk would.

Every move the solver emits is legality-checked at application time, so a
returned plan is valid by construction; failures roll the working state back
transactionally.
"""

from __future__ import annotations

import logging
import math
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .model import (
    Edge,
    Instance,
    InterferenceCache,
    Move,
    Plan,
    Roadmap,
    State,
    build_interference,
    edge_key,
    empty_vertices,
    validate_roadmap,
)

log = logging.getLogger("mapfla.solver")

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


@dataclass(frozen=True)
class SolverConfig:
    mode: str = LA  # "la" | "naive"
    # "index", "perm:<comma-separated ids>", "random-restarts:<count>:<seed>",
    # or an explicit permutation tuple.
    order: str | tuple[int, ...] = "index"
    time_limit: float = 30.0


@dataclass
class SolveStats:
    elapsed: float = 0.0
    moves: int = 0
    move_la_calls: int = 0
    case3_failures: int = 0
    attempts: int = 0


@dataclass
class SolveResult:
    status: str  # solved | failed | timeout
    plan: Plan | None
    stats: SolveStats


def reverse_plan(plan: Plan) -> Plan:
    """The move sequence that unwinds ``plan``: reversed order, endpoints swapped."""
    return [Move(m.agent, m.dst, m.src) for m in reversed(plan)]


class GraphView:
    """A roadmap with some edges masked out; vertices are never removed."""

    __slots__ = ("roadmap", "removed", "_masked")

    def __init__(self, roadmap: Roadmap, removed: frozenset[Edge] = frozenset()):
        self.roadmap = roadmap
        self.removed = removed
        masked: dict[int, set[int]] = {}
        for u, v in removed:
            masked.setdefault(u, set()).add(v)
            masked.setdefault(v, set()).add(u)
        self._masked = masked

    def neighbors(self, v: int) -> tuple[int, ...]:
        base = self.roadmap.adjacency[v]
        gone = self._masked.get(v)
        if gone is None:
            return base
        return tuple(w for w in base if w not in gone)

    def has_edge(self, u: int, v: int) -> bool:
        masked = self._masked.get(u, ())
        return edge_key(u, v) in self.roadmap.edge_set and v not in masked

    def without(self, edges) -> "GraphView":
        extra = frozenset(edges)
        if not extra:
            return self
        return GraphView(self.roadmap, self.removed | extra)


def _layers(
    view: GraphView, src: int, blocked: frozenset[int]
) -> Iterator[tuple[list[int], dict[int, int]]]:
    """Forward BFS from ``src`` that never enters ``blocked``, expanded one
    hop layer per step: yields each layer after ``src`` in discovery order
    with the parent map so far (``src`` is its own parent).  The next layer
    is expanded from the yielded list, so callers must not reorder it."""
    if src in blocked:
        return
    parent = {src: src}
    layer = [src]
    while layer:
        nxt = []
        for u in layer:
            for w in view.neighbors(u):
                if w not in blocked and w not in parent:
                    parent[w] = u
                    nxt.append(w)
        if nxt:
            yield nxt, parent
        layer = nxt


def _path_to(parent: dict[int, int], v: int) -> list[int]:
    path = [v]
    while parent[v] != v:
        v = parent[v]
        path.append(v)
    return path[::-1]


def lex_shortest_path(
    view: GraphView, src: int, dst: int, blocked: frozenset[int]
) -> list[int] | None:
    """Shortest path, ties broken toward the lexicographically smallest
    vertex-id sequence, or None when ``dst`` is unreachable."""
    if src in blocked or dst in blocked:
        return None
    if src == dst:
        return [src]
    for _, parent in _layers(view, src, blocked):
        if dst in parent:
            return _path_to(parent, dst)
    return None


class Workspace:
    """Mutable solving context: agent positions, the accumulated plan, counters.

    Every mutation goes through :meth:`try_move`, which enforces full
    transition legality (edge exists, mover present, target free, no occupied
    interfering vertex), so whatever ends up in ``plan`` is valid from the
    instance start.  ``mark``/``rollback`` give exact transactional undo.
    """

    def __init__(
        self,
        instance: Instance,
        cache: InterferenceCache | None = None,
        *,
        mode: str = LA,
        deadline: float | None = None,
    ):
        self.instance = instance
        self.cache = cache if cache is not None else build_interference(
            instance.roadmap, instance.radius
        )
        self.mode = mode
        self.deadline = deadline
        self.pos: list[int] = list(instance.starts)
        self.at: dict[int, int] = {v: a for a, v in enumerate(instance.starts)}
        self.plan: list[Move] = []
        self.stats = SolveStats()

    # -- bookkeeping ------------------------------------------------------

    def mark(self) -> int:
        return len(self.plan)

    def rollback(self, mark: int) -> None:
        while len(self.plan) > mark:
            m = self.plan.pop()
            del self.at[m.dst]
            self.at[m.src] = m.agent
            self.pos[m.agent] = m.src

    def check_time(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _TimeUp()

    # -- checked moves ----------------------------------------------------

    def try_move(self, agent: int, u: int, v: int) -> bool:
        if self.pos[agent] != u or v in self.at:
            return False
        interferers = self.cache.edge_vertices.get(edge_key(u, v))
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

    def traverse_edge_naive(self, u: int, v: int) -> bool:
        """Apply the traversal iff it is valid as-is; no clearing attempted."""
        agent = self.at.get(u)
        if agent is None:
            return False
        return self.try_move(agent, u, v)

    @property
    def step(self) -> Callable[..., bool]:
        """The single-edge traversal of ``mode``: ``move_la``, or a plain move
        that halts the attempt when blocked.  Stored on the instance instead,
        the bound method would make each Workspace a reference cycle that
        only the cyclic garbage collector frees."""
        return self._naive_step if self.mode == NAIVE else self.move_la

    def _naive_step(self, view: GraphView, u: int, v: int, *_) -> bool:
        if self.traverse_edge_naive(u, v):
            return True
        raise _NaiveHalt()

    # -- clearing procedures ----------------------------------------------

    def move_la(
        self,
        view: GraphView,
        v_from: int,
        v_to: int,
        blocked: frozenset[int],
        depth: int = 1,
    ) -> bool:
        """Traverse ``(v_from, v_to)`` with whoever stands on ``v_from``,
        temporarily relocating interfering agents and restoring them after.

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
        entry = self.mark()
        rev = self.reversable_edge_cleaning(view, v_from, v_to, blocked, depth)
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
        self,
        view: GraphView,
        v_from: int,
        v_to: int,
        blocked: frozenset[int],
        depth: int,
    ) -> Plan | None:
        """Clear every occupied interfering vertex of ``(v_from, v_to)``.

        Applies the clearing moves in place and returns the restore plan
        (already reversed, mover's own moves excluded), which puts every
        relocated agent back once executed after the traversal.  Rolls back
        and returns None when some vertex cannot be cleared, which is the
        unresolved-interference case the algorithm does not handle.
        """
        entry = self.mark()
        mover = self.at[v_from]
        interferers = self.cache.edge_vertices.get(edge_key(v_from, v_to), frozenset())
        i_free = {v for v in interferers if v not in self.at}
        rev_acc: list[Move] = []
        not_cleared: list[int] = []

        for v_p in sorted(interferers - i_free):
            if v_p not in self.at:
                i_free.add(v_p)
                continue
            seg_start = self.mark()
            if self.push_to_empty(
                view, v_p, blocked | {v_to}, (v_from, v_to), frozenset(i_free), depth
            ):
                rev_acc.extend(
                    m for m in self.plan[seg_start:] if m.agent != mover
                )
                i_free.add(v_p)
            else:
                not_cleared.append(v_p)

        for v_p in list(not_cleared):
            if v_p not in self.at:
                not_cleared.remove(v_p)
                i_free.add(v_p)
                continue
            ret = self.push_through_v_from(
                view, v_p, blocked, (v_from, v_to), frozenset(i_free), depth
            )
            if ret is not None:
                rev_acc.extend(m for m in ret if m.agent != mover)
                i_free.add(v_p)
                not_cleared.remove(v_p)

        if not_cleared:
            log.debug("edge %s: vertices %s not cleared", (v_from, v_to), not_cleared)
            self.rollback(entry)
            return None
        return reverse_plan(rev_acc)

    def push_to_empty(
        self,
        view: GraphView,
        v_prime: int,
        blocked: frozenset[int],
        edge: tuple[int, int],
        i_free: frozenset[int],
        depth: int,
    ) -> bool:
        """Walk the agent on ``v_prime`` to some empty vertex that does not
        interfere with ``edge``, avoiding both endpoints and every edge the
        target endpoint interferes with.  ``blocked`` must already contain
        the traversal target."""
        v_from, v_to = edge
        g = view.without(self.cache.vertex_edges.get(v_to, frozenset()))
        return self._push_off(
            g,
            v_prime,
            path_blocked=blocked | {v_from},
            acceptable=lambda v: v not in i_free,
            push=lambda g, path: self.push_along_path(g, path, blocked, depth),
        )[1]

    def push_along_path(
        self,
        view: GraphView,
        path: Sequence[int],
        blocked: frozenset[int],
        depth: int,
    ) -> Edge | None:
        """Shift the agents sitting on ``path`` one occupied slot toward its
        tail, last agent first; the tail must be empty.

        Frees the head; path vertices that were empty stay empty.  Each
        individual shift is a ``step`` one level deeper.  Returns None on
        success, else the edge whose traversal failed (state restored).
        """
        if len(path) < 2:
            return None
        entry = self.mark()
        if path[-1] in self.at:
            return (path[-2], path[-1])
        occupied_idx = [i for i, v in enumerate(path) if v in self.at]
        target = len(path) - 1
        for i in reversed(occupied_idx):
            for j in range(i, target):
                if not self.step(view, path[j], path[j + 1], blocked, depth + 1):
                    failed = (path[j], path[j + 1])
                    self.rollback(entry)
                    return failed
            target = i
        return None

    def push_through_v_from(
        self,
        view: GraphView,
        v_prime: int,
        blocked: frozenset[int],
        edge: tuple[int, int],
        i_free: frozenset[int],
        depth: int,
    ) -> Plan | None:
        """Clear ``v_prime`` when its only escape runs through ``v_from``:
        sidestep the mover to a neighbour, walk the interferer out through
        the vacated vertex, then walk the mover back.

        Returns the subsequence that must be replayed in reverse after the
        traversal to restore the relocated agents (the mover's sidestep is
        already undone inline and excluded), or None with state restored.
        """
        self.check_time()
        v_from, v_to = edge
        a_prime = self.at.get(v_prime)
        mover = self.at.get(v_from)
        if a_prime is None or mover is None:
            return None
        e_blk = self.cache.vertex_edges.get(v_to, frozenset())
        empties_entry = empty_vertices(State(tuple(self.pos)), self.instance.roadmap)

        def push_chain(g: GraphView, path: list[int]) -> Edge | None:
            return self.push_along_path(g, path, blocked | {v_to}, depth)

        for n_v in sorted(view.neighbors(v_from)):
            if n_v in blocked or n_v == v_prime:
                continue
            entry_n = self.mark()
            g = view.without(e_blk)

            if n_v in self.at:
                g, ok = self._push_off(
                    g,
                    n_v,
                    path_blocked=blocked | {v_from, v_to, v_prime},
                    acceptable=lambda v: v not in i_free and v != v_to,
                    push=push_chain,
                )
                if not ok:
                    self.rollback(entry_n)
                    continue
            pi_clear_n = list(self.plan[entry_n:])

            # Mover sidesteps with the traversal edge itself masked out; the
            # sidestep may brush the traversal target since it is undone
            # before the traversal happens.
            entry_side = self.mark()
            g_no_e = view.without((edge_key(v_from, v_to),))
            if not self.move_la(g_no_e, v_from, n_v, blocked, depth + 1):
                self.rollback(entry_n)
                continue
            pi_side = list(self.plan[entry_side:])
            participants = {m.agent for m in pi_side}
            touched = {v for m in pi_side for v in (m.src, m.dst)}
            off_limits = (
                set(i_free)
                | touched
                | set(self.cache.edge_vertices.get(edge_key(v_from, n_v), ()))
            )
            hold = blocked | {v_to} | {self.pos[a] for a in participants}

            entry_push = self.mark()
            g, ok = self._push_off(
                g,
                v_prime,
                path_blocked=hold,
                acceptable=lambda v: v in empties_entry and v not in off_limits,
                push=push_chain,
            )
            if not ok:
                self.rollback(entry_n)
                continue
            pi_escape = list(self.plan[entry_push:])

            # Walk the mover (and anything its sidestep disturbed) back;
            # the escaped interferer's own sidestep moves, if any, stay out.
            restored = True
            for m in reversed([m for m in pi_side if m.agent != a_prime]):
                if not self.try_move(m.agent, m.dst, m.src):
                    restored = False
                    break
            if not restored:
                self.rollback(entry_n)
                continue
            return pi_clear_n + pi_escape
        return None

    def _push_off(
        self,
        g: GraphView,
        src: int,
        path_blocked: frozenset[int],
        acceptable: Callable[[int], bool],
        push: Callable[[GraphView, list[int]], Edge | None],
    ) -> tuple[GraphView, bool]:
        """Try empty target vertices nearest-first, pushing the chain from
        ``src`` along each one's path; on a chain failure mask the failing
        edge and re-search the path before giving the target up.

        Targets come from one lazily expanded BFS, in ``(hops, id)`` order;
        until an edge is masked its parent map gives the paths.  ``push``
        moves the chain along a path and returns the edge it failed on, or
        None.  Every failed push masks an edge of its path, so at most one
        push per edge of ``g`` fails.
        """
        view = g
        for layer, parent in _layers(g, src, path_blocked):
            for eps in sorted(layer):
                if eps in self.at or not acceptable(eps):
                    continue
                while True:
                    if view is g:
                        path = _path_to(parent, eps)
                    else:
                        path = lex_shortest_path(view, src, eps, path_blocked)
                        if path is None:
                            break
                    attempt = self.mark()
                    failed = push(view, path)
                    if failed is None:
                        return view, True
                    self.rollback(attempt)
                    view = view.without((failed,))
        return view, False


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
    the whole call, validation and the interference build included.
    """
    config = config or SolverConfig()
    if config.mode not in (LA, NAIVE):
        raise ValueError(f"unknown mode {config.mode!r}")
    if not (math.isfinite(config.time_limit) and config.time_limit > 0):
        raise ValueError("time_limit must be positive and finite")
    t0 = time.monotonic()
    deadline = t0 + config.time_limit
    check_instance(instance)
    cache = build_interference(instance.roadmap, instance.radius)
    total = SolveStats()

    def finish(status: str, plan: Plan | None) -> SolveResult:
        total.elapsed = time.monotonic() - t0
        total.moves = len(plan) if plan is not None else 0
        log.info(
            "solve: %s after %d attempt(s), %.1f ms, %d move-la calls",
            status,
            total.attempts,
            total.elapsed * 1e3,
            total.move_la_calls,
        )
        return SolveResult(status, plan, total)

    for order in _orderings(config, instance.n_agents):
        ws = Workspace(instance, cache, mode=config.mode, deadline=deadline)
        total.attempts += 1
        try:
            ok = _solve_single_order(ws, order)
        except _NaiveHalt:
            ok = False
        except _TimeUp:
            total.move_la_calls += ws.stats.move_la_calls
            total.case3_failures += ws.stats.case3_failures
            return finish(TIMEOUT, None)
        total.move_la_calls += ws.stats.move_la_calls
        total.case3_failures += ws.stats.case3_failures
        if ok:
            return finish(SOLVED, list(ws.plan))
    return finish(FAILED, None)


def _orderings(config: SolverConfig, k: int) -> Iterator[tuple[int, ...]]:
    order = config.order
    identity = tuple(range(k))
    if isinstance(order, (tuple, list)):
        perm = tuple(order)
        _require_permutation(perm, k)
        yield perm
        return
    if order == "index":
        yield identity
        return
    if order.startswith("perm:"):
        perm = tuple(int(t) for t in order[len("perm:") :].split(",") if t != "")
        _require_permutation(perm, k)
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
        produced = 1
        while produced < count:
            perm = list(identity)
            rng.shuffle(perm)
            produced += 1
            t = tuple(perm)
            if t in seen:
                continue
            seen.add(t)
            yield t
        return
    raise ValueError(f"unknown order spec {order!r}")


def _require_permutation(perm: tuple[int, ...], k: int) -> None:
    if sorted(perm) != list(range(k)):
        raise ValueError(f"{perm!r} is not a permutation of 0..{k - 1}")


def _solve_single_order(ws: Workspace, order: tuple[int, ...]) -> bool:
    instance = ws.instance
    base = GraphView(instance.roadmap)
    locked: dict[int, int] = {}  # finished agent -> its goal vertex
    queue = deque(order)
    disturb_budget = 4 * instance.n_agents + 8
    while queue:
        ws.check_time()
        agent = queue.popleft()
        if not _plan_agent(ws, base, agent, locked):
            return False
        locked[agent] = instance.goals[agent]
        displaced = [a for a, v in locked.items() if ws.pos[a] != v]
        for a in displaced:
            del locked[a]
            queue.append(a)
            disturb_budget -= 1
            if disturb_budget < 0:
                return False
    return True


def _plan_agent(
    ws: Workspace,
    base: GraphView,
    agent: int,
    locked: dict[int, int],
) -> bool:
    goal = ws.instance.goals[agent]
    round_cap = 4 * ws.instance.roadmap.n_vertices + 16
    for disturb in (False, True):
        banned: set[Edge] = set()
        rounds = 0
        while ws.pos[agent] != goal and rounds < round_cap:
            rounds += 1
            ws.check_time()
            hard = (
                frozenset() if disturb else frozenset(ws.pos[a] for a in locked)
            )
            view = base.without(frozenset(banned)) if banned else base
            path = lex_shortest_path(view, ws.pos[agent], goal, hard)
            if path is None:
                break
            advanced = False
            banned_now = False
            for i in range(len(path) - 1):
                u, v = path[i], path[i + 1]
                if ws.pos[agent] != u:
                    break  # a push shoved this agent aside; replan from there
                if v in ws.at:
                    protect = frozenset(path[i + 1 :])
                    if not _outer_push(ws, base, v, u, protect, locked, disturb):
                        banned.add(edge_key(u, v))
                        banned_now = True
                        break
                    advanced = True  # occupancy changed even if the mover moved back
                    if ws.pos[agent] != u or v in ws.at:
                        break
                if not ws.step(base, u, v, frozenset(), 1):
                    banned.add(edge_key(u, v))
                    banned_now = True
                    break
                advanced = True
            if ws.pos[agent] == goal:
                return True
            if advanced:
                banned.clear()
            elif not banned_now:
                break
        if ws.pos[agent] == goal:
            return True
    log.debug("agent %d given up at vertex %d, goal %d", agent, ws.pos[agent], goal)
    return False


def _outer_push(
    ws: Workspace,
    base: GraphView,
    head: int,
    mover_vertex: int,
    protect: frozenset[int],
    locked: dict[int, int],
    disturb: bool,
) -> bool:
    """Permanently shove the chain starting at ``head`` into empty vertices,
    clearing ``head`` for the advancing agent.

    Escapes are tried in degrading tiers: first fully off the advancing
    agent's remaining path, then merely avoiding its current vertex, finally
    anywhere.  The last tier may run the chain through the advancing agent,
    shoving it backwards too; the caller notices its new position and
    replans.  Locked agents' vertices are off-limits unless ``disturb``.
    """

    def push(g: GraphView, path: list[int]) -> Edge | None:
        return ws.push_along_path(g, path, frozenset(), depth=0)

    tiers = (protect | {mover_vertex}, frozenset((mover_vertex,)), frozenset())
    tried: set[frozenset[int]] = set()
    for avoid in tiers:
        hard = set(avoid)
        if not disturb:
            hard.update(ws.pos[a] for a in locked)
        hard.discard(head)
        key = frozenset(hard)
        if key in tried:
            continue
        tried.add(key)
        if ws._push_off(base, head, key, lambda v: True, push)[1]:
            return True
    return False
