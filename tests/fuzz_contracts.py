"""Reusable fuzz drivers for the clearing-procedure contracts.

Each driver runs seeded randomized invocations against small instances and
returns the number of individual checks it performed, so callers can assert
aggregate coverage.  Any contract violation raises AssertionError directly.
"""

from __future__ import annotations

import random

from helpers import fuzz_instance
from mapfla.model import State, apply_move
from mapfla.solver import GraphView, Workspace, _layers, lex_shortest_path
from mapfla.validator import is_valid_transition


def _small_instance(seed: int):
    return fuzz_instance(seed, max_vertices=22, max_agents=6)


def _snapshot(ws: Workspace):
    return tuple(ws.pos), list(ws.plan)


def _assert_restored(ws: Workspace, snap) -> int:
    pos, plan = snap
    assert tuple(ws.pos) == pos
    assert ws.plan == plan
    assert ws.at == {v: a for a, v in enumerate(pos)}
    return 3


def _assert_segment_valid(inst, start_positions, segment) -> int:
    state = State(tuple(start_positions))
    for move in segment:
        assert is_valid_transition(state, move, inst), move
        state = apply_move(state, move)
    return len(segment)


def fuzz_move_la(seeds, attempts_per_seed: int = 6) -> int:
    """Contract: on success only the mover relocated (to the far endpoint)
    and the emitted subsequence replays validly; on failure exact rollback."""
    checks = 0
    for seed in seeds:
        inst = _small_instance(seed)
        ws = Workspace(inst)
        base = GraphView(inst.roadmap)
        rng = random.Random(seed ^ 0xA5A5_1234)
        for _ in range(attempts_per_seed):
            agent = rng.randrange(inst.n_agents)
            u = ws.pos[agent]
            nbrs = base.neighbors(u)
            if not nbrs:
                continue
            v = rng.choice(nbrs)
            snap = _snapshot(ws)
            ok = ws.move_la(base, u, v, frozenset())
            if ok:
                assert ws.pos[agent] == v
                checks += 1
                for other in range(inst.n_agents):
                    if other != agent:
                        assert ws.pos[other] == snap[0][other]
                        checks += 1
                checks += _assert_segment_valid(
                    inst, snap[0], ws.plan[len(snap[1]) :]
                )
            else:
                checks += _assert_restored(ws, snap)
    return checks


def fuzz_push_along_path(seeds, attempts_per_seed: int = 4) -> int:
    """Contract: head freed, previously-empty path vertices still empty,
    off-path agents untouched; failing edge means exact rollback."""
    checks = 0
    for seed in seeds:
        inst = _small_instance(seed)
        ws = Workspace(inst)
        base = GraphView(inst.roadmap)
        rng = random.Random(seed ^ 0x0FF5_77AA)
        for _ in range(attempts_per_seed):
            occupied = [v for v in ws.at]
            src = rng.choice(occupied)
            empties = [
                v
                for layer, _ in _layers(base, src, frozenset())
                for v in layer
                if v not in ws.at
            ]
            if not empties:
                continue
            path = lex_shortest_path(base, src, rng.choice(empties), frozenset())
            if path is None or len(path) < 2:
                continue
            snap = _snapshot(ws)
            was_empty = [v for v in path if v not in ws.at]
            on_path_agents = {ws.at[v] for v in path if v in ws.at}
            failed = ws.push_along_path(base, path, frozenset(), depth=0)
            if failed is None:
                assert path[0] not in ws.at  # head freed
                assert path[-1] in ws.at  # tail taken
                checks += 2
                for v in was_empty[:-1]:  # all but the tail target
                    if v != path[-1]:
                        assert v not in ws.at
                        checks += 1
                for agent in range(inst.n_agents):
                    if agent not in on_path_agents:
                        assert ws.pos[agent] == snap[0][agent]
                        checks += 1
                checks += _assert_segment_valid(
                    inst, snap[0], ws.plan[len(snap[1]) :]
                )
            else:
                assert failed[0] in path and failed[1] in path
                checks += 1
                checks += _assert_restored(ws, snap)
    return checks


def fuzz_edge_cleaning(seeds, attempts_per_seed: int = 6) -> int:
    """Contract: cleaning + traversal + restore ends with everyone except the
    mover back home; the restore sequence never moves the mover itself."""
    checks = 0
    for seed in seeds:
        inst = _small_instance(seed)
        ws = Workspace(inst)
        base = GraphView(inst.roadmap)
        rng = random.Random(seed ^ 0x5EED_0451)
        for _ in range(attempts_per_seed):
            agent = rng.randrange(inst.n_agents)
            u = ws.pos[agent]
            nbrs = [v for v in base.neighbors(u) if v not in ws.at]
            if not nbrs:
                continue
            v = rng.choice(nbrs)
            snap = _snapshot(ws)
            result = ws.reversable_edge_cleaning(base, u, v, frozenset(), depth=1)
            if result is None:
                checks += _assert_restored(ws, snap)
                continue
            segment, restore = result
            assert segment == ws.plan[len(snap[1]) :]
            assert all(m.agent != agent for m in restore)
            checks += 2
            # cleaning must leave the traversal itself valid
            assert ws.try_move(agent, u, v), "cleaned edge still blocked"
            checks += 1
            for m in restore:
                assert ws.try_move(m.agent, m.src, m.dst), m
                checks += 1
            assert ws.pos[agent] == v
            checks += 1
            for other in range(inst.n_agents):
                if other != agent:
                    assert ws.pos[other] == snap[0][other]
                    checks += 1
            checks += _assert_segment_valid(inst, snap[0], ws.plan[len(snap[1]) :])
    return checks


def fuzz_transactional_rollback(seeds, attempts_per_seed: int = 8) -> int:
    """Contract: every operation that reports failure leaves state and plan
    bitwise identical to entry."""
    checks = 0
    for seed in seeds:
        inst = _small_instance(seed)
        ws = Workspace(inst)
        base = GraphView(inst.roadmap)
        rng = random.Random(seed ^ 0x7007_BEEF)
        edges = sorted(inst.roadmap.edge_set)
        for _ in range(attempts_per_seed):
            snap = _snapshot(ws)
            kind = rng.randrange(3)
            if kind == 0:
                u, v = rng.choice(edges)
                if rng.random() < 0.5:
                    u, v = v, u
                if not ws.move_la(base, u, v, frozenset()):
                    checks += _assert_restored(ws, snap)
            elif kind == 1:
                occupied = sorted(ws.at)
                v_p = rng.choice(occupied)
                u, v = rng.choice(edges)
                ok = ws.push_to_empty(
                    base, v_p, frozenset({v}), (u, v), frozenset(), depth=1
                )
                if not ok:
                    checks += _assert_restored(ws, snap)
            else:
                occupied = sorted(ws.at)
                v_p = rng.choice(occupied)
                u, v = rng.choice(edges)
                if ws.pos[0] != u and u in ws.at and v_p != u:
                    ret = ws.push_through_v_from(
                        base, v_p, frozenset(), (u, v), frozenset(), depth=1
                    )
                    if ret is None:
                        checks += _assert_restored(ws, snap)
                else:
                    ws.rollback(len(snap[1]))
    return checks
