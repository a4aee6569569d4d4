"""Property tests for the solver's lazy nearest-first search.

The solver finds push targets and paths with one forward BFS expanded a layer
at a time (``_layers``).  These tests hold it to the search it replaced: a
full BFS ranking every vertex by ``(hops, id)`` and, per target, a reverse BFS
from the target followed by a greedy walk over sorted adjacency.  Reference
copies of both live here only.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from mapfla.model import Instance, make_roadmap
from mapfla.solver import GraphView, Workspace, _layers, _path_to, lex_shortest_path


def ref_bfs_dists(view, src, blocked):
    if src in blocked:
        return {}
    dists = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in view.neighbors(u):
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
            w for w in view.neighbors(cur) if w not in blocked and to_dst.get(w) == step
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
    return GraphView(roadmap).without(masked), src, blocked


@settings(max_examples=300, deadline=None)
@given(searches())
def test_lex_shortest_path_matches_reverse_bfs_greedy(search):
    view, src, blocked = search
    for dst in range(view.roadmap.n_vertices):
        assert lex_shortest_path(view, src, dst, blocked) == ref_lex_shortest_path(
            view, src, dst, blocked
        )


@settings(max_examples=300, deadline=None)
@given(searches())
def test_layers_give_candidates_in_dist_id_order_with_lex_paths(search):
    view, src, blocked = search
    order = []
    for hops, (layer, parent) in enumerate(_layers(view, src, blocked), start=1):
        for v in sorted(layer):
            order.append((hops, v))
            assert _path_to(parent, v) == ref_lex_shortest_path(view, src, v, blocked)
    full = ref_bfs_dists(view, src, blocked)
    assert order == sorted((d, v) for v, d in full.items() if v != src)


@settings(max_examples=300, deadline=None)
@given(searches())
def test_unreachable_target_gives_none(search):
    view, src, blocked = search
    reachable = ref_bfs_dists(view, src, blocked)
    for dst in range(view.roadmap.n_vertices):
        if dst not in reachable:
            assert lex_shortest_path(view, src, dst, blocked) is None


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
                return g, True
            g = g.without((failed,))
    return g, False


@settings(max_examples=300, deadline=None)
@given(
    searches(),
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
        def push(g, path):
            log.append((g.removed, tuple(path)))
            assert len(log) <= 200, "the push loop does not terminate"
            k = outcomes[len(log) - 1] if len(log) <= len(outcomes) else 0
            if k is None:
                return None
            i = k % (len(path) - 1)
            return (path[i], path[i + 1])

        return push

    got_log, want_log = [], []
    got_view, got_ok = ws._push_off(view, src, blocked, acceptable, scripted(got_log))
    want_view, want_ok = ref_push_off(
        ws, view, src, blocked, acceptable, scripted(want_log)
    )
    assert got_log == want_log
    assert got_ok == want_ok
    assert got_view.removed == want_view.removed
