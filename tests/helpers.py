"""Shared fixture builders: hand-placed geometric instances with known
interference patterns, plus seeded random instance generators."""

from __future__ import annotations

import hashlib
import math
import random

from mapfla import fileio
from mapfla.harness import gen_roadmap
from mapfla.geometry import segdist
from mapfla.model import (
    Instance,
    InterferenceCache,
    State,
    apply_move,
    edge_key,
    make_roadmap,
)
from mapfla.solver import GraphView
from mapfla.validator import is_valid_transition


def star_instance() -> Instance:
    """Hub with four leaves fanned 60 degrees apart; agents on leaves 1..3,
    goals shifted one leaf over.  Every leaf's hub edge passes within 2r of
    an occupied neighbouring leaf, so no agent can move at all."""
    pts = [(0.0, 0.0)]
    for k in range(4):
        a = math.radians(60 * k)
        pts.append((1.2 * math.cos(a), 1.2 * math.sin(a)))
    rm = make_roadmap(pts, [(0, 1), (0, 2), (0, 3), (0, 4)])
    return Instance(roadmap=rm, radius=0.55, starts=(1, 2, 3), goals=(2, 3, 4))


def ordering_instance() -> Instance:
    """Order-sensitive fixture: agent 0 must cross edge (1, 2) which agent 1
    blocks from vertex 3; vertex 3's only escape runs through the traversal
    target, so clearing fails.  Planning agent 1 first vacates the blocker
    and both reach their goals."""
    pts = [(0.0, 0.0), (1.2, 0.0), (2.4, 0.0), (1.8, 1.0), (3.6, 0.0)]
    rm = make_roadmap(pts, [(0, 1), (1, 2), (2, 3), (2, 4)])
    return Instance(roadmap=rm, radius=0.55, starts=(0, 3), goals=(2, 4))


def chain_clear_instance() -> Instance:
    """Agent 0 wants edge (0, 1); agent 1 interferes from vertex 2 and its
    escape path to the free vertex 4 runs through agent 2 on vertex 3, so
    clearing must shift the whole chain."""
    pts = [(0.0, 0.0), (1.2, 0.0), (0.6, 0.9), (0.6, 2.1), (0.6, 3.3)]
    rm = make_roadmap(pts, [(0, 1), (2, 3), (3, 4)])
    return Instance(roadmap=rm, radius=0.5, starts=(0, 2, 3), goals=(1, 2, 3))


def sidestep_instance() -> Instance:
    """Agent 0 on the hub wants edge (0, 1); agent 1 interferes from vertex 2
    whose only escape is through the hub itself.  The mover must step aside
    to a spare hub neighbour (3 or 4) to let the interferer out."""
    pts = [(0.0, 0.0), (1.2, 0.0), (0.35, 1.05), (-1.2, 0.3), (0.2, -1.2)]
    rm = make_roadmap(pts, [(0, 1), (0, 2), (0, 3), (0, 4)])
    return Instance(roadmap=rm, radius=0.54, starts=(0, 2), goals=(1, 2))


def case3_instance() -> Instance:
    """Unclearable interference: agent 1 on vertex 2 blocks edge (0, 1) and
    can escape only through the traversal target 1, so no reversible
    clearing exists."""
    pts = [(0.0, 0.0), (1.2, 0.0), (0.85, 1.05), (-0.5, -1.1), (2.4, 0.2)]
    rm = make_roadmap(pts, [(0, 1), (1, 2), (0, 3), (1, 4)])
    return Instance(roadmap=rm, radius=0.54, starts=(0, 2), goals=(1, 2))


def two_branch_instance() -> Instance:
    """Sidestep fixture with a decoy: the mover's lowest-id spare neighbour
    (vertex 3) is occupied by an agent that cannot be cleared, so the mover
    must sidestep via the next free neighbour (vertex 4) before the
    interferer on vertex 2 can escape to vertex 5."""
    pts = [(0.0, 0.0), (1.2, 0.0), (0.6, 0.65)]
    for deg in (120, 180, 240):
        a = math.radians(deg)
        pts.append((1.2 * math.cos(a), 1.2 * math.sin(a)))
    rm = make_roadmap(pts, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
    return Instance(roadmap=rm, radius=0.35, starts=(0, 2, 3), goals=(1, 2, 3))


def corridor_path_instance() -> Instance:
    """Six collinear vertices, agents on 0, 1 and 4: the push-a-chain shape.
    Collinear geometry keeps every interference set empty."""
    pts = [(1.2 * i, 0.0) for i in range(6)]
    rm = make_roadmap(pts, [(i, i + 1) for i in range(5)])
    return Instance(
        roadmap=rm, radius=0.5, starts=(0, 1, 4), goals=(0, 1, 4)
    )


def retry_instance() -> Instance:
    """Escape-path retry shape: clearing agent 1 (vertex 2) must route its
    chain around edge (3, 4), which agent 3 blocks from the isolated vertex
    5; the detour via vertex 6 works."""
    pts = [
        (0.0, 0.0),    # 0: mover start
        (1.2, 0.0),    # 1: traversal target
        (0.6, 1.0),    # 2: interferer of (0, 1)
        (0.6, 2.2),    # 3: chain member on the short escape
        (0.6, 3.4),    # 4: empty escape target
        (1.55, 2.8),   # 5: isolated blocker of edge (3, 4)
        (-0.8, 2.8),   # 6: detour vertex
    ]
    rm = make_roadmap(pts, [(0, 1), (2, 3), (3, 4), (3, 6), (4, 6)])
    return Instance(
        roadmap=rm, radius=0.5, starts=(0, 2, 3, 5), goals=(1, 2, 3, 5)
    )


def full_table(roadmap, radius):
    """An :class:`InterferenceCache` with every edge already looked up, so
    that it holds the whole relation: on a table not yet filled,
    ``.values()`` sees only the bands computed so far."""
    table = InterferenceCache(roadmap, radius)
    for e in sorted(roadmap.edge_set):
        table[e]
    return table


def masked_by(roadmap, bands, v):
    """The edges that a push around vertex ``v`` masks: every edge that
    ``GraphView.avoiding(v)`` drops on a view reading ``bands``, asked edge
    by edge."""
    view = GraphView(roadmap, bands=bands).avoiding(v)
    return frozenset(e for e in roadmap.edge_set if not view.has_edge(*e))


def view_neighbors(view, u):
    """``u``'s neighbours on ``view`` in sorted order, each edge asked of
    ``GraphView.has_edge``: the reference for searches that test edges
    inline."""
    return [w for w in view.roadmap.adjacency[u] if view.has_edge(u, w)]


def brute_force_interference(roadmap, radius):
    """Every edge's interfering vertices by testing each edge against every
    vertex: the reference the interference table must equal."""
    threshold = 2 * radius + 1e-9
    out = {}
    for u, v in roadmap.edge_set:
        hits = set()
        for w in range(roadmap.n_vertices):
            if w in (u, v):
                continue
            if segdist(roadmap.points[w], roadmap.points[u], roadmap.points[v]) <= threshold:
                hits.add(w)
        out[edge_key(u, v)] = frozenset(hits)
    return out


def interference_free_instance(seed: int, n_agents: int = 4) -> Instance:
    """Random instance with the radius shrunk until no edge has interferers."""
    rng = random.Random(seed)
    rm = _random_roadmap(rng, n_vertices=rng.randint(12, 24))
    clear = min(
        (
            segdist(rm.points[w], rm.points[u], rm.points[v])
            for u, v in rm.edge_set
            for w in range(rm.n_vertices)
            if w != u and w != v
        ),
        default=1.0,
    )
    radius = min(0.3, clear / 2.5)
    k = min(n_agents, rm.n_vertices // 2)
    starts = tuple(rng.sample(range(rm.n_vertices), k))
    goals = tuple(rng.sample(range(rm.n_vertices), k))
    inst = Instance(roadmap=rm, radius=radius, starts=starts, goals=goals)
    assert not any(full_table(rm, radius).values())
    return inst


def _random_roadmap(rng: random.Random, n_vertices: int):
    fill = rng.uniform(0.15, 0.35)
    side = math.sqrt(n_vertices * math.pi * 0.25 / fill)
    return gen_roadmap(
        n_vertices,
        target_degree=rng.uniform(2.6, 4.6),
        min_separation=1.0,
        extent=(side, side),
        seed=rng.randrange(2**31),
    )


def fuzz_instance(seed: int, max_vertices: int = 60, max_agents: int = 10) -> Instance:
    """Seeded instance with mixed interference density: vertex count in
    [10, max_vertices], agent count in [2, max_agents], radius from nearly
    interference-free up to just under half the vertex separation."""
    rng = random.Random(seed)
    rm = _random_roadmap(rng, rng.randint(10, max_vertices))
    radius = rng.uniform(0.28, 0.49)
    k = max(2, min(max_agents, rm.n_vertices - 2, rng.randint(2, max_agents)))
    starts = tuple(rng.sample(range(rm.n_vertices), k))
    goals = tuple(rng.sample(range(rm.n_vertices), k))
    return Instance(roadmap=rm, radius=radius, starts=starts, goals=goals)


def tiny_instance(seed: int) -> Instance:
    """Oracle-sized instance: at most 10 vertices and 3 agents."""
    rng = random.Random(seed)
    rm = _random_roadmap(rng, rng.randint(6, 10))
    radius = rng.uniform(0.28, 0.49)
    k = min(rng.randint(2, 3), rm.n_vertices - 2)
    starts = tuple(rng.sample(range(rm.n_vertices), k))
    goals = tuple(rng.sample(range(rm.n_vertices), k))
    return Instance(roadmap=rm, radius=radius, starts=starts, goals=goals)


def toy_instance(toy_seed: int, n_vertices: int = 12, n_agents: int = 3) -> Instance:
    """The benchmark's toy recipe, 12 vertices and 3 agents by default,
    drawn from ``toy_seed``."""
    rng = random.Random(toy_seed)
    side = math.sqrt(n_vertices * math.pi * 0.25 / 0.3)
    rm = gen_roadmap(n_vertices, 3.4, 1.0, (side, side), seed=rng.randrange(2**31))
    k = min(n_agents, rm.n_vertices - 2)
    return Instance(
        roadmap=rm,
        radius=rng.uniform(0.3, 0.49),
        starts=tuple(rng.sample(range(rm.n_vertices), k)),
        goals=tuple(rng.sample(range(rm.n_vertices), k)),
    )


def plan_digest(plan) -> str:
    """SHA-256 of ``fileio.dumps_plan``, or ``-`` when there is no plan."""
    if plan is None:
        return "-"
    return hashlib.sha256(fileio.dumps_plan(plan).encode()).hexdigest()


def replay(instance: Instance, plan) -> State:
    """Replay a plan move by move, asserting validity of every transition."""
    state = State(instance.starts)
    for move in plan:
        assert is_valid_transition(state, move, instance), (move, state)
        state = apply_move(state, move)
    return state
