import random

from hypothesis import given
from hypothesis import strategies as st
import pytest

import fuzz_contracts
from helpers import (
    case3_instance,
    chain_clear_instance,
    corridor_path_instance,
    replay,
    retry_instance,
    sidestep_instance,
    tiny_instance,
    two_branch_instance,
)
from mapfla.model import Move, State, make_roadmap
from mapfla.solver import (
    NAIVE,
    GraphView,
    Workspace,
    _NaiveHalt,
    lex_shortest_path,
    reverse_plan,
)
from mapfla.validator import is_valid_transition


def make_ws(inst):
    return Workspace(inst), GraphView(inst.roadmap)


# -- move_la on the hand-built fixtures ----------------------------------------


def test_move_la_trivial_when_no_interference():
    inst = corridor_path_instance()
    ws, base = make_ws(inst)
    # agent 2 sits alone at vertex 4; vertex 5 free
    assert ws.move_la(base, 4, 5, frozenset())
    assert ws.plan == [Move(2, 4, 5)]


def test_move_la_chain_clearing_and_restore():
    inst = chain_clear_instance()
    ws, base = make_ws(inst)
    assert ws.move_la(base, 0, 1, frozenset())
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
    assert ws.move_la(base, 0, 1, frozenset())
    assert tuple(ws.pos) == (1, 2)  # interferer restored to vertex 2
    # the interferer must have transited the vacated hub
    assert any(m.agent == 1 and 0 in (m.src, m.dst) for m in ws.plan)
    replay(inst, ws.plan)


def test_move_la_case3_fails_transactionally_and_counts():
    inst = case3_instance()
    ws, base = make_ws(inst)
    before = (tuple(ws.pos), list(ws.plan))
    assert not ws.move_la(base, 0, 1, frozenset())
    assert ws.stats.case3_failures == 1
    assert (tuple(ws.pos), ws.plan) == before


def test_move_la_rejects_occupied_target_and_missing_edge():
    inst = corridor_path_instance()
    ws, base = make_ws(inst)
    assert not ws.move_la(base, 0, 1, frozenset())  # vertex 1 occupied
    assert not ws.move_la(base, 0, 2, frozenset())  # no such edge
    assert not ws.move_la(base, 2, 3, frozenset())  # no agent on vertex 2
    assert ws.plan == []


def test_move_la_depth_limit():
    inst = chain_clear_instance()
    ws, base = make_ws(inst)
    assert not ws.move_la(base, 0, 1, frozenset(), depth=99)
    assert ws.plan == []


# -- push_along_path ------------------------------------------------------------


def test_push_along_path_shifts_chain_one_slot():
    inst = corridor_path_instance()
    ws, base = make_ws(inst)
    path = [0, 1, 2, 3, 4, 5]
    assert ws.push_along_path(base, path, frozenset(), depth=0) is None
    # last agent to the tail, the others into their successors' old slots
    assert tuple(ws.pos) == (1, 4, 5)
    assert 0 not in ws.at  # head freed
    assert 2 not in ws.at and 3 not in ws.at  # pre-empty interior stays empty
    replay(inst, ws.plan)


def test_push_along_path_single_step():
    inst = corridor_path_instance()
    ws, base = make_ws(inst)
    assert ws.push_along_path(base, [4, 5], frozenset(), depth=0) is None
    assert ws.plan == [Move(2, 4, 5)]


def test_push_along_path_blocked_edge_reported_and_rolled_back():
    inst = retry_instance()
    ws, base = make_ws(inst)
    before = (tuple(ws.pos), list(ws.plan))
    failed = ws.push_along_path(base, [2, 3, 4], frozenset(), depth=0)
    assert failed == (3, 4)  # geometrically blocked by the parked agent
    assert (tuple(ws.pos), ws.plan) == before


# -- push_to_empty ---------------------------------------------------------------


def test_push_to_empty_retries_around_blocked_edge():
    inst = retry_instance()
    ws, base = make_ws(inst)
    ok = ws.push_to_empty(
        base, 2, frozenset({1}), (0, 1), frozenset(), depth=1
    )
    assert ok
    assert 2 not in ws.at  # interferer gone from the edge's band
    assert any(6 in (m.src, m.dst) for m in ws.plan)  # detour taken
    assert not any({m.src, m.dst} == {3, 4} for m in ws.plan)
    replay(inst, ws.plan)


def test_push_to_empty_single_adjacent_push():
    inst = chain_clear_instance()
    ws, base = make_ws(inst)
    # agent 2 on vertex 3 is adjacent to the free non-interfering vertex 4
    ok = ws.push_to_empty(base, 3, frozenset({1}), (0, 1), frozenset(), depth=1)
    assert ok
    assert ws.plan == [Move(2, 3, 4)]


def test_cleaning_trivial_when_interferers_unoccupied():
    inst = chain_clear_instance()
    ws, base = make_ws(inst)
    # vacate the interfering vertex first, then clean: nothing left to do
    assert ws.try_move(2, 3, 4)
    assert ws.try_move(1, 2, 3)
    mark = len(ws.plan)
    restore = ws.reversable_edge_cleaning(base, 0, 1, frozenset(), depth=1)
    assert restore == []
    assert len(ws.plan) == mark


def test_push_to_empty_no_escape_returns_false():
    inst = case3_instance()
    ws, base = make_ws(inst)
    before = (tuple(ws.pos), list(ws.plan))
    ok = ws.push_to_empty(base, 2, frozenset({1}), (0, 1), frozenset(), depth=1)
    assert not ok
    assert (tuple(ws.pos), ws.plan) == before


# -- push_through_v_from ---------------------------------------------------------


def test_push_through_v_from_success_shape():
    inst = sidestep_instance()
    ws, base = make_ws(inst)
    ret = ws.push_through_v_from(
        base, 2, frozenset(), (0, 1), frozenset(), depth=1
    )
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
    ret = ws.push_through_v_from(
        base, 2, frozenset(), (0, 1), frozenset(), depth=1
    )
    assert ret is None
    assert (tuple(ws.pos), ws.plan) == before


def test_push_through_v_from_blocked_neighbours_fail_fast():
    inst = sidestep_instance()
    ws, base = make_ws(inst)
    blocked = frozenset({3, 4})  # both spare hub neighbours forbidden
    ret = ws.push_through_v_from(base, 2, blocked, (0, 1), frozenset(), depth=1)
    assert ret is None


def test_push_through_v_from_second_neighbour_after_occupied_first():
    inst = two_branch_instance()
    ws, base = make_ws(inst)
    assert ws.move_la(base, 0, 1, frozenset())
    assert tuple(ws.pos) == (1, 2, 3)
    # the parked agent on the dead-end spoke was never disturbed
    assert all(m.agent != 2 for m in ws.plan)
    # the mover sidestepped via the free spoke, not the occupied one
    assert Move(0, 0, 4) in ws.plan
    replay(inst, ws.plan)


# -- traverse_edge_naive ---------------------------------------------------------


def test_traverse_naive_applies_only_valid_moves():
    inst = chain_clear_instance()
    ws, _ = make_ws(inst)
    assert not ws.traverse_edge_naive(0, 1)  # interferer present: halt, no clearing
    assert ws.plan == []
    inst2 = corridor_path_instance()
    ws2, _ = make_ws(inst2)
    assert ws2.traverse_edge_naive(4, 5)
    assert ws2.plan == [Move(2, 4, 5)]


def test_traverse_naive_matches_validator_verdict():
    rng = random.Random(99)
    agreements = 0
    for seed in range(300):
        inst = tiny_instance(seed)
        ws, _ = make_ws(inst)
        agent = rng.randrange(inst.n_agents)
        u = ws.pos[agent]
        nbrs = inst.roadmap.neighbors(u)
        if not nbrs:
            continue
        v = rng.choice(nbrs)
        expected = is_valid_transition(State(inst.starts), Move(agent, u, v), inst)
        assert ws.traverse_edge_naive(u, v) == expected
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
    assert ws.push_along_path(base, [0, 1, 2, 3, 4, 5], frozenset(), depth=0) is None
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
    assert ws.step(base, 0, 1, frozenset(), 1)
    assert ws.pos[0] == 1 and ws.pos[1:] == [2, 3]

    ws = Workspace(inst, mode=NAIVE)
    with pytest.raises(_NaiveHalt):
        ws.step(base, 0, 1, frozenset(), 1)
    assert ws.plan == []
    with pytest.raises(_NaiveHalt):
        ws.push_along_path(base, [0, 1], frozenset(), 0)


# -- graph view ------------------------------------------------------------------


def test_masked_edge_is_gone_whichever_way_it_was_stored():
    rm = make_roadmap([(i, 0) for i in range(4)], [(0, 1), (1, 2), (2, 3)])
    for mask in ((1, 2), (2, 1)):
        view = GraphView(rm).without([mask])
        assert view.neighbors(1) == (0,)
        assert not view.has_edge(1, 2)
        assert not view.has_edge(2, 1)
        assert view.has_edge(1, 0) and view.has_edge(2, 3)
        assert not view.has_edge(0, 2)


# -- helper search ---------------------------------------------------------------


def test_lex_shortest_path_prefers_smallest_ids():
    # diamond: 0-1-3 and 0-2-3 tie; lexicographically smaller goes through 1
    rm = make_roadmap(
        [(0, 0), (1, 1), (1, -1), (2, 0)], [(0, 1), (0, 2), (1, 3), (2, 3)]
    )
    assert lex_shortest_path(GraphView(rm), 0, 3, frozenset()) == [0, 1, 3]
    assert lex_shortest_path(GraphView(rm), 0, 3, frozenset({1})) == [0, 2, 3]
    assert lex_shortest_path(GraphView(rm), 0, 3, frozenset({1, 2})) is None


def test_lex_shortest_path_ranks_by_path_not_by_vertex_id():
    # 0-1-4-5 and 0-2-3-5 tie; vertex 3 < 4, but the path through 1 is smaller
    rm = make_roadmap(
        [(i, 0) for i in range(6)], [(0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)]
    )
    assert lex_shortest_path(GraphView(rm), 0, 5, frozenset()) == [0, 1, 4, 5]


# -- fuzzed contracts (smoke scale; acceptance runs these big) --------------------


def test_fuzz_move_la_contract_smoke():
    assert fuzz_contracts.fuzz_move_la(range(40)) > 300


def test_fuzz_push_along_path_contract_smoke():
    assert fuzz_contracts.fuzz_push_along_path(range(40)) > 200


def test_fuzz_edge_cleaning_contract_smoke():
    assert fuzz_contracts.fuzz_edge_cleaning(range(40)) > 300


def test_fuzz_rollback_contract_smoke():
    assert fuzz_contracts.fuzz_transactional_rollback(range(40)) > 100
