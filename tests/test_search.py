"""Property tests for the solver's lazy nearest-first search.

The solver finds push targets and paths with a forward BFS grown a layer at
a time on demand (``_Search``), one per view.  These tests hold it to the
search it replaced: a full BFS ranking every vertex by ``(hops, id)`` and, per
target, a fresh reverse BFS from the target followed by a greedy walk over
sorted adjacency.  Reference copies of both live here only, and they read
each edge through ``GraphView.has_edge``, which ``_Search`` tests inline.
The outer loop's ``lex_shortest_path`` walks depth-first down the
roadmap's hop distances to the goal (``_hop_walk``) at the source's depth
D, then at D + 1, and runs a full ``_Search`` only when both miss; it is
held to the same reference, and each stage to the paths it must answer.
"""

from __future__ import annotations

import random
from collections import deque
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from helpers import view_neighbors
from mapfla import solver
from mapfla.harness import gen_preset
from mapfla.model import Instance, InterferenceCache, make_roadmap
from mapfla.solver import (
    GraphView,
    Workspace,
    _Search,
    lex_shortest_path,
)


def ref_bfs_dists(view, src, blocked):
    if src in blocked:
        return {}
    dists = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in view_neighbors(view, u):
            if w not in blocked and w not in dists:
                dists[w] = dists[u] + 1
                queue.append(w)
    return dists


def ref_lex_shortest_path(view, src, dst, blocked):
    if src in blocked or dst in blocked:
        return None
    if src == dst:
        return [src]
    to_dst = ref_bfs_dists(view, dst, blocked)
    if src not in to_dst:
        return None
    path = [src]
    cur = src
    while cur != dst:
        step = to_dst[cur] - 1
        cur = next(
            w for w in view_neighbors(view, cur) if w not in blocked and to_dst.get(w) == step
        )
        path.append(cur)
    return path


@st.composite
def searches(draw, max_vertices: int = 12):
    """A random graph view with masked edges, a blocked set and a source."""
    n = draw(st.integers(1, max_vertices))
    rng = draw(st.randoms(use_true_random=False))
    # Sparse enough for paths of several hops that branch and rejoin.
    density = draw(st.sampled_from([0.15, 0.25, 0.4]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if rng.random() < density]
    # Masked edges come in either orientation, as the solver's failures do.
    masked = [
        (v, u) if flip else (u, v)
        for (u, v), flip in draw(
            st.lists(st.tuples(st.sampled_from(edges), st.booleans()))
            if edges
            else st.just([])
        )
    ]
    blocked = frozenset(draw(st.sets(st.integers(0, n - 1))))
    src = draw(st.integers(0, n - 1))
    roadmap = make_roadmap([(3.0 * i, 0.0) for i in range(n)], edges)
    return GraphView(roadmap, InterferenceCache(roadmap, 1.0)).without(masked), src, blocked


@st.composite
def near_searches(draw):
    """A drawn search whose view also masks the edges near 0-2 vertices.
    On the collinear points a long edge's band holds the vertices it spans,
    so some edges are masked by their bands."""
    view, src, blocked = draw(searches())
    for v in draw(st.lists(st.integers(0, view.roadmap.n_vertices - 1), max_size=2)):
        view = view.avoiding(v)
    return view, src, blocked


def unmasked(view):
    """``view``'s roadmap and table with nothing masked: the solve's base
    view, of which the views ``lex_shortest_path`` takes remove edges."""
    return GraphView(view.roadmap, view.bands)


@settings(max_examples=300, deadline=None)
@given(searches())
def test_lex_shortest_path_matches_reverse_bfs_greedy(search):
    view, src, blocked = search
    for dst in range(view.roadmap.n_vertices):
        assert lex_shortest_path(view, src, dst, blocked) == ref_lex_shortest_path(
            view, src, dst, blocked
        )


@settings(max_examples=300, deadline=None)
@given(near_searches())
def test_layers_give_candidates_in_dist_id_order_with_lex_paths(search):
    view, src, blocked = search
    order = []
    bfs = _Search(view, src, blocked)
    hops = 0
    while layer := bfs.next_layer():
        hops += 1
        for v in sorted(layer):
            order.append((hops, v))
            assert bfs.path(v) == ref_lex_shortest_path(view, src, v, blocked)
    full = ref_bfs_dists(view, src, blocked)
    assert order == sorted((d, v) for v, d in full.items() if v != src)


@settings(max_examples=300, deadline=None)
@given(near_searches(), st.lists(st.integers(0, 11), max_size=24))
def test_one_search_answers_targets_in_any_order(search, targets):
    """Asking one search for several targets, in any order and with
    repeats, gives each the answer of a fresh reference search."""
    view, src, blocked = search
    reused = _Search(view, src, blocked)
    for dst in targets:
        if dst < view.roadmap.n_vertices:
            assert reused.path(dst) == ref_lex_shortest_path(view, src, dst, blocked)


@settings(max_examples=300, deadline=None)
@given(searches())
def test_unreachable_target_gives_none(search):
    view, src, blocked = search
    reachable = ref_bfs_dists(view, src, blocked)
    for dst in range(view.roadmap.n_vertices):
        if dst not in reachable:
            assert lex_shortest_path(view, src, dst, blocked) is None


def searched(view, src, dst, blocked):
    """``lex_shortest_path``'s answer, and the stage that gave it: ``"D"`` or
    ``"D+1"`` for the first or second walk, ``"full"`` for the BFS, None when
    no stage ran.  The full search is the one that constructs a ``_Search``."""
    with (
        mock.patch.object(solver, "_hop_walk", wraps=solver._hop_walk) as walk,
        mock.patch.object(solver, "_Search", wraps=solver._Search) as full,
    ):
        path = lex_shortest_path(view, src, dst, blocked)
    return path, "full" if full.call_count else (None, "D", "D+1")[walk.call_count]


def roadmap_hops(view, src, dst):
    """Hops from ``src`` to ``dst`` on the whole roadmap, None if unreachable."""
    return ref_bfs_dists(unmasked(view), dst, frozenset()).get(src)


@settings(max_examples=300, deadline=None)
@given(searches(), st.integers(0, 11))
def test_pruned_search_falls_back_only_without_a_path_of_roadmap_length(search, dst):
    view, src, blocked = search
    dst %= view.roadmap.n_vertices
    want = ref_lex_shortest_path(view, src, dst, blocked)
    got, stage = searched(view, src, dst, blocked)
    assert got == want
    hops = roadmap_hops(view, src, dst)
    # Answered without a search: off the roadmap's component, or blocked.
    if hops is None or src in blocked or dst in blocked:
        assert stage is None
    else:
        longer = None if want is None else len(want) - 1 - hops
        assert stage == {0: "D", 1: "D+1"}.get(longer, "full")


def _two_routes():
    """0-1-2-3 and the longer 0-4-5-6-3 to the same goal; 7 stands alone."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 3)]
    roadmap = make_roadmap([(3.0 * i, 0.0) for i in range(8)], edges)
    return GraphView(roadmap, InterferenceCache(roadmap, 1.0))


@pytest.mark.parametrize(
    "src, dst, blocked, masked, want, fell_back",
    [
        (0, 3, (), (), [0, 1, 2, 3], False),
        (0, 3, (1,), (), [0, 4, 5, 6, 3], True),  # a blocked vertex forces it
        (0, 3, (), ((2, 1),), [0, 4, 5, 6, 3], True),  # a masked edge forces it
        (0, 3, (1, 5), (), None, True),  # cut off in the view alone
        (0, 7, (), (), None, False),  # unreachable on the roadmap
        (0, 3, (3,), (), None, False),  # blocked goal
        (2, 2, (), (), [2], False),
        (2, 2, (2,), (), None, False),
    ],
)
def test_pruned_search_on_two_routes(src, dst, blocked, masked, want, fell_back):
    """``fell_back`` says the walk at D missed: a path found after that is
    one hop longer here, and a miss after it is the full search's."""
    view = _two_routes().without(masked)
    blocked = frozenset(blocked)
    assert ref_lex_shortest_path(view, src, dst, blocked) == want
    stage = ("D", "D+1") if want else (None, "full")
    assert searched(view, src, dst, blocked) == (want, stage[fell_back])


def test_an_answer_one_hop_longer_leaves_the_goals_table_growing():
    """A blocked vertex makes the walk at D miss on a fresh roadmap; the walk
    at D + 1 gives the reference's path from the table grown only until the
    source was settled, which stays a growing ``(dist, frontier, depth)``."""
    # 0-1-2-3 is D = 3 from 3 to the goal 0; 3-5-6-1 detours around 2, and
    # the tail 3-7-8-9 is deeper than the source.
    edges = [(0, 1), (1, 2), (2, 3), (3, 5), (5, 6), (6, 1), (3, 7), (7, 8), (8, 9)]
    roadmap = make_roadmap([(3.0 * i, 0.0) for i in range(10)], edges)
    view = GraphView(roadmap, InterferenceCache(roadmap, 1.0))
    blocked = frozenset((2,))
    want = ref_lex_shortest_path(view, 3, 0, blocked)
    assert want == [3, 5, 6, 1, 0]
    assert searched(view, 3, 0, blocked) == (want, "D+1")
    kept = roadmap.goal_hops[0]
    assert isinstance(kept, tuple)
    dist, frontier, depth = kept
    assert (depth, sorted(frontier), dist[9]) == (3, [3, 5], 10)


def test_a_path_two_hops_longer_comes_from_the_full_search():
    """No walk runs past D + 1.  With 2 and 4 blocked, the only path from 3
    to the goal 0 detours through 5 and 6, both at h = D = 3, and is two
    hops longer than D: only the full search may give it."""
    edges = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 3), (5, 6), (6, 7), (7, 1)]
    roadmap = make_roadmap([(3.0 * i, 0.0) for i in range(8)], edges)
    view = GraphView(roadmap, InterferenceCache(roadmap, 1.0))
    blocked = frozenset((2, 4))
    want = ref_lex_shortest_path(view, 3, 0, blocked)
    assert want == [3, 5, 6, 7, 1, 0]
    assert searched(view, 3, 0, blocked) == (want, "full")


def test_the_full_search_runs_on_the_view_given_and_builds_none():
    """The same detour forced by two removed edges: the last stage searches
    the caller's view itself, and no stage builds a ``GraphView``."""
    edges = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 3), (5, 6), (6, 7), (7, 1)]
    roadmap = make_roadmap([(3.0 * i, 0.0) for i in range(8)], edges)
    view = GraphView(roadmap, InterferenceCache(roadmap, 1.0)).without([(2, 3), (1, 4)])
    with (
        mock.patch.object(solver, "_Search", wraps=solver._Search) as full,
        mock.patch.object(solver, "GraphView", wraps=solver.GraphView) as built,
    ):
        assert lex_shortest_path(view, 3, 0, frozenset()) == [3, 5, 6, 7, 1, 0]
    (call,) = full.call_args_list
    assert call.args[0] is view
    assert built.call_count == 0


def ref_push_off(ws, g, src, path_blocked, acceptable, push):
    """The eager nearest-first push loop the lazy one replaced."""
    dists = ref_bfs_dists(g, src, path_blocked)
    candidates = sorted(
        (d, v) for v, d in dists.items() if v != src and v not in ws.at and acceptable(v)
    )
    for _, eps in candidates:
        while True:
            path = ref_lex_shortest_path(g, src, eps, path_blocked)
            if path is None:
                break
            failed = push(g, path)
            if failed is None:
                return True
            g = g.without((failed,))
    return False


@settings(max_examples=300, deadline=None)
@given(
    near_searches(),
    st.sets(st.integers(0, 11)),
    st.sets(st.integers(0, 11)),
    st.lists(st.one_of(st.none(), st.integers(0, 10)), max_size=30),
)
def test_push_off_tries_the_same_paths_as_the_eager_search(
    search, occupied, rejected, outcomes
):
    """With a stand-in push that fails on a scripted edge of its path (None
    means success), both loops must try the same paths on the same masked
    views and end the same way."""
    view, src, blocked = search
    n = view.roadmap.n_vertices
    starts = tuple(v for v in sorted(occupied | {src}) if v < n)
    ws = Workspace(Instance(view.roadmap, 0.1, starts, starts))

    def acceptable(v):
        return v not in rejected

    def scripted(log):
        def push(g, path, *_):
            log.append((g.removed, tuple(path)))
            assert len(log) <= 200, "the push loop does not terminate"
            k = outcomes[len(log) - 1] if len(log) <= len(outcomes) else 0
            if k is None:
                return None
            i = k % (len(path) - 1)
            return (path[i], path[i + 1])

        return push

    got_log, want_log = [], []
    ws.push_along_path = scripted(got_log)
    got_ok = ws._push_off(view, src, blocked, rejected, 1)
    want_ok = ref_push_off(ws, view, src, blocked, acceptable, scripted(want_log))
    assert got_log == want_log
    assert got_ok == want_ok


@pytest.mark.parametrize(
    "preset, seed", [("dense-like", s) for s in range(20)] + [("sparse-like", 0)]
)
def test_goal_hops_grown_to_the_source_give_the_full_searchs_paths(preset, seed):
    """``lex_shortest_path`` grows each goal's BFS only until the source is
    settled.  Random queries on one fresh roadmap, with banned edges and
    blocked vertices, resume the same tables; after each, every settled
    entry is the roadmap's hop distance and the settled vertices are
    exactly those within the depth the BFS reached."""
    roadmap, radius = gen_preset(preset, seed)
    n = roadmap.n_vertices
    base = GraphView(roadmap, InterferenceCache(roadmap, radius))
    full = {}
    rng = random.Random(seed)
    for _ in range(40):
        src, goal = rng.randrange(n), rng.randrange(n)
        banned = rng.sample(roadmap.edge_list, rng.randrange(4))
        blocked = frozenset(rng.sample(range(n), rng.randrange(4)))
        view = base.without(banned)
        got = lex_shortest_path(view, src, goal, blocked)
        assert got == _Search(view, src, blocked).path(goal)
        if goal not in full:
            full[goal] = ref_bfs_dists(base, goal, frozenset())
        want, kept = full[goal], roadmap.goal_hops[goal]
        dist, frontier, depth = kept
        assert dist[src] == want[src]  # settled
        assert sorted(frontier) == sorted(v for v, d in want.items() if d == depth)
        assert {v: d for v, d in enumerate(dist) if d < n} == {
            v: d for v, d in want.items() if d <= depth
        }
    for goal, want in full.items():
        assert list(roadmap.hops_to(goal)) == [want.get(v, n) for v in range(n)]
