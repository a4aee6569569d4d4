import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import fuzz_contracts
from helpers import (
    brute_force_interference,
    case3_instance,
    chain_clear_instance,
    corridor_path_instance,
    replay,
    retry_instance,
    sidestep_instance,
    tiny_instance,
    two_branch_instance,
    view_neighbors,
)
from mapfla.harness import gen_roadmap
from mapfla.model import InterferenceCache, Move, State, edge_key, make_roadmap
from mapfla.solver import (
    NAIVE,
    GraphView,
    Workspace,
    _NaiveHalt,
    _Search,
    lex_shortest_path,
    reverse_plan,
)
from mapfla.validator import is_valid_transition


def make_ws(inst):
    ws = Workspace(inst)
    return ws, GraphView(inst.roadmap, bands=ws.bands)


# -- move_la on the hand-built fixtures ----------------------------------------


def test_move_la_trivial_when_no_interference():
    inst = corridor_path_instance()
    ws, base = make_ws(inst)
    # agent 2 sits alone at vertex 4; vertex 5 free
    assert ws.move_la(base, 4, 5)
    assert ws.plan == [Move(2, 4, 5)]


def test_move_la_chain_clearing_and_restore():
    inst = chain_clear_instance()
    ws, base = make_ws(inst)
    assert ws.move_la(base, 0, 1)
    assert ws.plan == [
        Move(2, 3, 4),
        Move(1, 2, 3),
        Move(0, 0, 1),
        Move(1, 3, 2),
        Move(2, 4, 3),
    ]
    assert tuple(ws.pos) == (1, 2, 3)
    replay(inst, ws.plan)


def test_move_la_sidestep_through_own_vertex():
    inst = sidestep_instance()
    ws, base = make_ws(inst)
    assert ws.move_la(base, 0, 1)
    assert tuple(ws.pos) == (1, 2)  # interferer restored to vertex 2
    # the interferer must have transited the vacated hub
    assert any(m.agent == 1 and 0 in (m.src, m.dst) for m in ws.plan)
    replay(inst, ws.plan)


def test_move_la_case3_fails_transactionally_and_counts():
    inst = case3_instance()
    ws, base = make_ws(inst)
    before = (tuple(ws.pos), list(ws.plan))
    assert not ws.move_la(base, 0, 1)
    assert ws.stats.case3_failures == 1
    assert (tuple(ws.pos), ws.plan) == before


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(Workspace, name)

    def spy(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(Workspace, name, spy)
    return calls


def test_move_la_with_a_free_band_makes_one_checked_move(monkeypatch):
    cleanings = _count_calls(monkeypatch, "reversable_edge_cleaning")
    checked = _count_calls(monkeypatch, "try_move")
    inst = corridor_path_instance()
    ws, base = make_ws(inst)
    assert ws.move_la(base, 4, 5)
    assert ws.plan == [Move(2, 4, 5)]
    assert (len(checked), cleanings) == (1, [])
    assert (ws.stats.move_la_calls, ws.stats.case3_failures) == (1, 0)
    # An occupied band still goes through the clearing, once.
    inst = chain_clear_instance()
    ws, base = make_ws(inst)
    assert ws.move_la(base, 0, 1)
    assert len(cleanings) == 1 and len(ws.plan) == 5


@pytest.mark.parametrize("refused", [1, 2, 3], ids=["traversal", "restore-1", "restore-2"])
def test_move_la_rolls_back_a_move_refused_after_the_clearing(refused):
    """The clearing of ``chain_clear_instance`` leaves the mover's traversal
    and two restores to make; when ``try_move`` refuses any one of them,
    ``move_la`` fails with the state and plan it found."""
    inst = chain_clear_instance()
    ws, base = make_ws(inst)
    entry = (list(ws.plan), list(ws.pos), dict(ws.at))
    clean, move = ws.reversable_edge_cleaning, ws.try_move
    cleaned, calls = [], []  # the restore plan; try_move calls after it

    def cleaning(*args):
        rev = clean(*args)
        cleaned.append(rev)
        return rev

    def try_move(*args):
        if cleaned:
            calls.append(args)
            if len(calls) == refused:
                return False
        return move(*args)

    ws.reversable_edge_cleaning, ws.try_move = cleaning, try_move
    assert not ws.move_la(base, 0, 1)
    assert len(cleaned[0]) == 2 and calls[0] == (0, 0, 1) and len(calls) == refused
    assert (ws.plan, ws.pos, ws.at) == entry


@pytest.mark.parametrize("refusals", [1, math.inf], ids=["first", "every"])
def test_push_through_v_from_rolls_back_a_refused_walk_back(refusals):
    """On ``sidestep_instance``, ``try_move`` refuses the mover's walk back
    onto the hub after the interferer's escape, once or every time: the
    next spare neighbour then gives a restore plan, or the call gives None
    with the state and plan it found."""
    inst = sidestep_instance()
    ws, base = make_ws(inst)
    entry = (list(ws.plan), list(ws.pos), dict(ws.at))
    move = ws.try_move
    refused = []

    def try_move(agent, u, v):
        if agent == 0 and v == 0 and len(refused) < refusals:
            refused.append(u)
            return False
        return move(agent, u, v)

    ws.try_move = try_move
    ret = ws.push_through_v_from(base, 2, (0, 1), depth=1)
    assert (ret is None) == (refusals == math.inf)
    if ret is None:
        assert refused == [3, 4]
        assert (ws.plan, ws.pos, ws.at) == entry
    else:
        assert refused == [3]
        assert ws.pos == [0, 3] and all(m.agent != 0 for m in ret)
        replay(inst, ws.plan)


def test_move_la_rejects_occupied_target_and_missing_edge():
    inst = corridor_path_instance()
    ws, base = make_ws(inst)
    assert not ws.move_la(base, 0, 1)  # vertex 1 occupied
    assert not ws.move_la(base, 0, 2)  # no such edge
    assert not ws.move_la(base, 2, 3)  # no agent on vertex 2
    assert ws.plan == []


def test_move_la_depth_limit():
    inst = chain_clear_instance()
    ws, base = make_ws(inst)
    assert not ws.move_la(base, 0, 1, depth=99)
    assert ws.plan == []


# -- push_along_path ------------------------------------------------------------


def test_push_along_path_shifts_chain_one_slot():
    inst = corridor_path_instance()
    ws, base = make_ws(inst)
    path = [0, 1, 2, 3, 4, 5]
    assert ws.push_along_path(base, path, depth=0) is None
    # last agent to the tail, the others into their successors' old slots
    assert tuple(ws.pos) == (1, 4, 5)
    assert 0 not in ws.at  # head freed
    assert 2 not in ws.at and 3 not in ws.at  # pre-empty interior stays empty
    replay(inst, ws.plan)


def test_push_along_path_single_step():
    inst = corridor_path_instance()
    ws, base = make_ws(inst)
    assert ws.push_along_path(base, [4, 5], depth=0) is None
    assert ws.plan == [Move(2, 4, 5)]


def test_push_along_path_blocked_edge_reported_and_rolled_back():
    inst = retry_instance()
    ws, base = make_ws(inst)
    before = (tuple(ws.pos), list(ws.plan))
    failed = ws.push_along_path(base, [2, 3, 4], depth=0)
    assert failed == (3, 4)  # geometrically blocked by the parked agent
    assert (tuple(ws.pos), ws.plan) == before


# -- push_to_empty ---------------------------------------------------------------


def test_push_to_empty_retries_around_blocked_edge():
    inst = retry_instance()
    ws, base = make_ws(inst)
    ok = ws.push_to_empty(base, 2, (0, 1), depth=1)
    assert ok
    assert 2 not in ws.at  # interferer gone from the edge's band
    assert any(6 in (m.src, m.dst) for m in ws.plan)  # detour taken
    assert not any({m.src, m.dst} == {3, 4} for m in ws.plan)
    replay(inst, ws.plan)


def test_push_to_empty_single_adjacent_push():
    inst = chain_clear_instance()
    ws, base = make_ws(inst)
    # agent 2 on vertex 3 is adjacent to the free non-interfering vertex 4
    ok = ws.push_to_empty(base, 3, (0, 1), depth=1)
    assert ok
    assert ws.plan == [Move(2, 3, 4)]


@pytest.mark.parametrize(
    "agent, u, v",
    [(0, 0, 4), (1, 2, 1), (1, 2, 5)],
    ids=["not-adjacent", "not-adjacent-other-agent", "missing-vertex"],
)
def test_try_move_along_a_non_edge_changes_nothing(agent, u, v):
    # The mover stands on u and v is free, so only the edge test refuses it.
    ws, _ = make_ws(chain_clear_instance())
    assert ws.try_move(2, 3, 4)
    before = (list(ws.pos), dict(ws.at), list(ws.plan))
    assert not ws.try_move(agent, u, v)
    assert (ws.pos, ws.at, ws.plan) == before


def test_cleaning_trivial_when_interferers_unoccupied():
    inst = chain_clear_instance()
    ws, base = make_ws(inst)
    # vacate the interfering vertex first, then clean: nothing left to do
    assert ws.try_move(2, 3, 4)
    assert ws.try_move(1, 2, 3)
    mark = len(ws.plan)
    restore = ws.reversable_edge_cleaning(base, 0, 1, depth=1)
    assert restore == []
    assert len(ws.plan) == mark


def test_push_to_empty_no_escape_returns_false():
    inst = case3_instance()
    ws, base = make_ws(inst)
    before = (tuple(ws.pos), list(ws.plan))
    ok = ws.push_to_empty(base, 2, (0, 1), depth=1)
    assert not ok
    assert (tuple(ws.pos), ws.plan) == before


# -- push_through_v_from ---------------------------------------------------------


def test_push_through_v_from_success_shape():
    inst = sidestep_instance()
    ws, base = make_ws(inst)
    ret = ws.push_through_v_from(base, 2, (0, 1), depth=1)
    assert ret is not None
    # mover back home, interferer relocated off its vertex
    assert ws.pos[0] == 0
    assert ws.pos[1] != 2
    # the restore segment never moves the mover
    assert all(m.agent != 0 for m in ret)
    replay(inst, ws.plan)


def test_push_through_v_from_no_viable_neighbour():
    inst = case3_instance()
    ws, base = make_ws(inst)
    before = (tuple(ws.pos), list(ws.plan))
    ret = ws.push_through_v_from(base, 2, (0, 1), depth=1)
    assert ret is None
    assert (tuple(ws.pos), ws.plan) == before


def test_push_through_v_from_blocked_neighbours_fail_fast():
    inst = sidestep_instance()
    ws = Workspace(inst)
    # both spare hub neighbours are targets of enclosing traversals
    view = GraphView(inst.roadmap, near=frozenset({3, 4}), bands=ws.bands)
    ret = ws.push_through_v_from(view, 2, (0, 1), depth=1)
    assert ret is None


def test_push_through_v_from_second_neighbour_after_occupied_first():
    inst = two_branch_instance()
    ws, base = make_ws(inst)
    assert ws.move_la(base, 0, 1)
    assert tuple(ws.pos) == (1, 2, 3)
    # the parked agent on the dead-end spoke was never disturbed
    assert all(m.agent != 2 for m in ws.plan)
    # the mover sidestepped via the free spoke, not the occupied one
    assert Move(0, 0, 4) in ws.plan
    replay(inst, ws.plan)


# -- the naive step ------------------------------------------------------------


def naive_step(ws, u, v):
    """``ws.step`` of a naive workspace, with a halt counted as False."""
    try:
        return ws.step(GraphView(ws.instance.roadmap, ws.bands), u, v)
    except _NaiveHalt:
        return False


def test_traverse_naive_applies_only_valid_moves():
    ws = Workspace(chain_clear_instance(), mode=NAIVE)
    assert not naive_step(ws, 0, 1)  # interferer present: halt, no clearing
    assert ws.plan == []
    ws2 = Workspace(corridor_path_instance(), mode=NAIVE)
    assert not naive_step(ws2, 2, 3)  # nobody on vertex 2
    assert naive_step(ws2, 4, 5)
    assert ws2.plan == [Move(2, 4, 5)]


def test_traverse_naive_matches_validator_verdict():
    rng = random.Random(99)
    agreements = 0
    for seed in range(300):
        inst = tiny_instance(seed)
        ws = Workspace(inst, mode=NAIVE)
        agent = rng.randrange(inst.n_agents)
        u = ws.pos[agent]
        nbrs = inst.roadmap.adjacency[u]
        if not nbrs:
            continue
        v = rng.choice(nbrs)
        expected = is_valid_transition(State(inst.starts), Move(agent, u, v), inst)
        assert naive_step(ws, u, v) == expected
        assert ws.plan == ([Move(agent, u, v)] if expected else [])
        agreements += 1
    assert agreements > 250


# -- reverse ---------------------------------------------------------------------


def test_reverse_plan_basics():
    assert reverse_plan([]) == []
    assert reverse_plan([Move(0, 1, 2)]) == [Move(0, 2, 1)]


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 9), st.integers(0, 9)),
        max_size=30,
    )
)
def test_reverse_plan_round_trip(triples):
    plan = [Move(a, u, v) for a, u, v in triples]
    assert reverse_plan(reverse_plan(plan)) == plan


def test_reverse_plan_undoes_execution():
    inst = corridor_path_instance()
    ws, base = make_ws(inst)
    assert ws.push_along_path(base, [0, 1, 2, 3, 4, 5], depth=0) is None
    forward = list(ws.plan)
    state = replay(inst, forward)
    for m in reverse_plan(forward):
        assert is_valid_transition(state, m, inst)
        positions = list(state.positions)
        positions[m.agent] = m.dst
        state = State(tuple(positions))
    assert state.positions == inst.starts


# -- the single-edge step of each mode -------------------------------------------


def test_step_is_move_la_for_la_and_halts_for_naive():
    inst = chain_clear_instance()  # agent 1 on vertex 2 interferes with (0, 1)
    ws, base = make_ws(inst)
    assert ws.step(base, 0, 1)
    assert ws.pos[0] == 1 and ws.pos[1:] == [2, 3]

    ws = Workspace(inst, mode=NAIVE)
    with pytest.raises(_NaiveHalt):
        ws.step(base, 0, 1)
    assert ws.plan == []
    with pytest.raises(_NaiveHalt):
        ws.push_along_path(base, [0, 1], 0)


# -- graph view ------------------------------------------------------------------


def test_masked_edge_is_gone_whichever_way_it_was_stored():
    rm = make_roadmap([(i, 0) for i in range(4)], [(0, 1), (1, 2), (2, 3)])
    for mask in ((1, 2), (2, 1)):
        view = GraphView(rm, InterferenceCache(rm, 0.25)).without([mask])
        assert view_neighbors(view, 1) == [0]
        assert not view.has_edge(1, 2)
        assert not view.has_edge(2, 1)
        assert view.has_edge(1, 0) and view.has_edge(2, 3)
        assert not view.has_edge(0, 2)


def test_a_view_needs_its_table_at_construction():
    rm = make_roadmap([(i, 0) for i in range(3)], [(0, 1), (1, 2)])
    with pytest.raises(TypeError):
        GraphView(rm)
    assert view_neighbors(GraphView(rm, InterferenceCache(rm, 0.25)).avoiding(0), 1) == [0, 2]


def _drawn_masks(seed):
    """A drawn roadmap and radius, one to three masked vertices, and up to
    three explicit masked edges, each stored in a drawn orientation."""
    rng = random.Random(seed)
    n = rng.randint(4, 30)
    side = math.sqrt(n * math.pi * 0.25 / rng.uniform(0.15, 0.35))
    rm = gen_roadmap(n, rng.uniform(2.0, 6.0), 1.0, (side, side), seed=rng.randrange(2**31))
    radius = rng.uniform(0.05, 1.0)
    near = rng.sample(range(rm.n_vertices), rng.randint(1, min(3, rm.n_vertices)))
    edges = sorted(rm.edge_set)
    removed = [
        e if rng.random() < 0.5 else e[::-1]
        for e in rng.sample(edges, rng.randint(0, min(3, len(edges))))
    ]
    return rng, rm, radius, near, removed


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_a_view_avoiding_vertices_equals_the_eager_mask(seed):
    rng, rm, radius, near, removed = _drawn_masks(seed)
    bands = brute_force_interference(rm, radius)
    eager = GraphView(rm, InterferenceCache(rm, radius)).without(removed)
    for v in near:
        eager = eager.without(e for e, band in bands.items() if v in band)
    # The lazy view stacks the same masks in a drawn order, as nested
    # pushes do, with the explicit edges masked somewhere in between.
    table = InterferenceCache(rm, radius)
    steps = [("near", v) for v in near] + [("edges", removed)]
    rng.shuffle(steps)
    lazy = GraphView(rm, bands=table)
    for kind, arg in steps:
        lazy = lazy.avoiding(arg) if kind == "near" else lazy.without(arg)
    assert lazy.near == frozenset(near)
    n = rm.n_vertices
    for u in range(n):
        assert view_neighbors(lazy, u) == view_neighbors(eager, u)
        for w in range(n):
            assert lazy.has_edge(u, w) == eager.has_edge(u, w)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_a_search_over_a_masked_view_computes_only_the_bands_it_reaches(seed):
    rng, rm, radius, near, removed = _drawn_masks(seed)
    table = InterferenceCache(rm, radius)
    view = GraphView(rm, bands=table).without(removed)
    for v in near:
        view = view.avoiding(v)
    src = rng.randrange(rm.n_vertices)
    stop = rng.randint(1, 4)
    search = _Search(view, src, frozenset())
    for _ in range(stop):
        search.next_layer()
    # The reference expands the same layers in discovery order and reads an
    # edge's band only when the edge is not masked explicitly and its far
    # end is not yet found.
    bands = brute_force_interference(rm, radius)
    removed_keys = {edge_key(*e) for e in removed}
    found, layer, read = {src}, [src], set()
    for _ in range(stop):
        nxt = []
        for u in layer:
            for w in rm.adjacency[u]:
                e = edge_key(u, w)
                if w in found or e in removed_keys:
                    continue
                read.add(e)
                if view.near.isdisjoint(bands[e]):
                    found.add(w)
                    nxt.append(w)
        layer = nxt
    assert set(table) == read


# -- helper search ---------------------------------------------------------------


def test_lex_shortest_path_prefers_smallest_ids():
    # diamond: 0-1-3 and 0-2-3 tie; lexicographically smaller goes through 1
    rm = make_roadmap(
        [(0, 0), (1, 1), (1, -1), (2, 0)], [(0, 1), (0, 2), (1, 3), (2, 3)]
    )
    view = GraphView(rm, InterferenceCache(rm, 0.25))
    assert lex_shortest_path(view, 0, 3, frozenset()) == [0, 1, 3]
    assert lex_shortest_path(view, 0, 3, frozenset({1})) == [0, 2, 3]
    assert lex_shortest_path(view, 0, 3, frozenset({1, 2})) is None


def test_lex_shortest_path_ranks_by_path_not_by_vertex_id():
    # 0-1-4-5 and 0-2-3-5 tie; vertex 3 < 4, but the path through 1 is smaller
    rm = make_roadmap(
        [(i, 0) for i in range(6)], [(0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)]
    )
    view = GraphView(rm, InterferenceCache(rm, 0.25))
    assert lex_shortest_path(view, 0, 5, frozenset()) == [0, 1, 4, 5]


# -- fuzzed contracts (smoke scale; acceptance runs these big) --------------------


def test_fuzz_move_la_contract_smoke():
    assert fuzz_contracts.fuzz_move_la(range(40)) > 300


def test_fuzz_push_along_path_contract_smoke():
    assert fuzz_contracts.fuzz_push_along_path(range(40)) > 200


def test_fuzz_edge_cleaning_contract_smoke():
    assert fuzz_contracts.fuzz_edge_cleaning(range(40)) > 300


def test_fuzz_rollback_contract_smoke():
    assert fuzz_contracts.fuzz_transactional_rollback(range(40)) > 100
