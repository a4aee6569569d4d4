import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_interference, full_table, masked_by, star_instance, toy_instance
import mapfla.model
from mapfla.geometry import clearance_threshold, dist, segdist
from mapfla.model import (
    Instance,
    InterferenceCache,
    Move,
    Roadmap,
    State,
    apply_move,
    assignment_issues,
    edge_key,
    make_roadmap,
    validate_roadmap,
)
from mapfla.oracle import joint_bfs_solve
from mapfla.solver import GraphView, solve
from mapfla.validator import validate_plan


# -- interference cache -------------------------------------------------------


def test_far_apart_edges_have_empty_interference():
    # two parallel edges, everything more than 10r apart
    rm = make_roadmap([(0, 0), (1, 0), (0, 8), (1, 8)], [(0, 1), (2, 3)])
    cache = full_table(rm, 0.05)
    assert all(not s for s in cache.values())


def test_perpendicular_vertex_inside_band():
    # third vertex at perpendicular distance 1.5r from the segment interior
    r = 0.4
    rm = make_roadmap([(0, 0), (2, 0), (1, 1.5 * r)], [(0, 1)])
    cache = full_table(rm, r)
    assert cache[(0, 1)] == frozenset({2})
    assert masked_by(rm, cache, 2) == frozenset({(0, 1)})


def test_star_fan_interference_pattern():
    inst = star_instance()
    bands = full_table(inst.roadmap, inst.radius)
    assert bands == brute_force_interference(inst.roadmap, inst.radius)
    # middle leaves block both flanking hub edges, end leaves one each
    assert masked_by(inst.roadmap, bands, 2) == frozenset({(0, 1), (0, 3)})
    assert masked_by(inst.roadmap, bands, 3) == frozenset({(0, 2), (0, 4)})
    assert masked_by(inst.roadmap, bands, 1) == frozenset({(0, 2)})
    assert masked_by(inst.roadmap, bands, 4) == frozenset({(0, 3)})


def test_endpoints_never_interfere_with_own_edge():
    rm = make_roadmap([(0, 0), (0.5, 0), (1.0, 0)], [(0, 1), (1, 2), (0, 2)])
    cache = full_table(rm, 0.2)
    for (u, v), hits in cache.items():
        assert u not in hits and v not in hits


def test_mask_and_bands_are_exact_inverses():
    # A push around w masks edge e exactly when w is in e's band.
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(3, 9)
        pts = [(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(n)]
        edges = {
            edge_key(rng.randrange(n), rng.randrange(n)) for _ in range(n)
        }
        rm = make_roadmap(pts, [e for e in edges if e[0] != e[1]])
        cache = full_table(rm, rng.uniform(0.05, 0.8))
        masks = {w: masked_by(rm, cache, w) for w in range(n)}
        for e, hits in cache.items():
            for w in hits:
                assert e in masks[w]
        for w, es in masks.items():
            for e in es:
                assert w in cache[e]


def test_cache_independent_of_edge_insertion_order():
    pts = [(0, 0), (1, 0), (0.5, 0.4), (2, 1)]
    edges = [(0, 1), (1, 3), (2, 3)]
    rm_a, rm_b = make_roadmap(pts, edges), make_roadmap(pts, list(reversed(edges)))
    a, b = full_table(rm_a, 0.3), full_table(rm_b, 0.3)
    assert a == b
    for v in range(len(pts)):
        assert masked_by(rm_a, a, v) == masked_by(rm_b, b, v)


def test_small_radius_empties_all_interference():
    # radius below half the tightest vertex-to-foreign-edge clearance
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(4, 9)
        pts = [(rng.uniform(0, 8), rng.uniform(0, 8)) for _ in range(n)]
        edges = [e for e in {edge_key(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)} if e[0] != e[1]]
        rm = make_roadmap(pts, edges)
        clear = min(
            (
                segdist(rm.points[w], rm.points[u], rm.points[v])
                for u, v in rm.edge_set
                for w in range(n)
                if w not in (u, v)
            ),
            default=1.0,
        )
        if clear <= 0:
            continue
        cache = full_table(rm, clear / 2.5)
        assert all(not s for s in cache.values())
        assert cache == brute_force_interference(rm, clear / 2.5)


# -- broad phase: the x-sorted sweep equals the exhaustive scans --------------


def test_x_order_is_the_finite_vertices_by_x_sorted_once_per_roadmap():
    pts = [(2.0, 0.0), (math.nan, 1.0), (-1.0, 5.0), (0.5, math.inf), (0.0, 0.0)]
    rm = make_roadmap(pts, [])
    assert rm.x_order == ((2, 4, 0), (-1.0, 0.0, 2.0))
    assert rm.x_order is rm.x_order


def ref_x_order(points):
    order = tuple(sorted(
        (v for v, (x, y) in enumerate(points) if math.isfinite(x) and math.isfinite(y)),
        key=lambda v: points[v][0],
    ))
    return order, tuple(points[v][0] for v in order)


def ref_vertex_issues(points):
    return tuple(
        f"vertex {v} has non-finite coordinates ({x!r}, {y!r})"
        for v, (x, y) in enumerate(points)
        if not (math.isfinite(x) and math.isfinite(y))
    )


# Few distinct values, so that x ties (0.0 against -0.0 too) are common.
_coords = st.sampled_from([0.0, -0.0, 1.0, -2.5, math.nan, math.inf, -math.inf]) | st.floats(-3, 3)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.tuples(_coords, _coords), max_size=10),
    st.sampled_from(["x_order", "vertex_issues"]),
)
def test_one_point_pass_gives_the_two_separate_passes(points, first):
    """Whichever is read first, the one pass over the points gives the x
    order (ties in id order) and the coordinate lines that two separate
    scans gave, and both are kept."""
    rm = make_roadmap(points, [])
    getattr(rm, first)
    assert repr(rm.x_order) == repr(ref_x_order(rm.points))
    assert rm.vertex_issues == ref_vertex_issues(rm.points)
    assert {"x_order", "vertex_issues"} <= vars(rm).keys()


def exhaustive_pair_issues(points, r):
    """The separation check as an all-pairs double loop: the reference the
    sweep in ``validate_roadmap`` must equal, line for line."""
    limit = 2 * r + 1e-9
    issues = []
    for u in range(len(points)):
        for v in range(u + 1, len(points)):
            d = dist(points[u], points[v])
            if d <= limit:
                issues.append(
                    f"vertices {u} and {v} are {d:.9g} apart; "
                    f"separation must exceed 2r = {2 * r:.9g}"
                )
    return issues


def assert_lookup_order_is_irrelevant(rm, r, full, lookup_seed):
    """Every band of a fresh table, and every answer of a view masking the
    edges near a vertex, asked in a drawn order, equals what the fully
    looked-up table ``full`` gives; a non-edge gives None, or is no edge of
    the view, and stores nothing."""
    table = InterferenceCache(rm, r)
    n = rm.n_vertices
    views = [GraphView(rm, bands=table).avoiding(v) for v in range(n)]
    keys = [(None, e) for e in rm.edge_set]
    keys += [(v, e) for v in range(n) for e in rm.edge_set]
    random.Random(lookup_seed).shuffle(keys)
    outside = [(0, 0), (n, n + 1), (-1, 0)]
    outside += [
        (u, v) for u in range(min(n, 4)) for v in range(u + 1, n) if (u, v) not in rm.edge_set
    ][:8]
    for i, (v, e) in enumerate(keys):
        if i % 4 == 0:  # between fills too
            bad = outside[i // 4 % len(outside)]
            before = dict(table)
            assert table[bad] is None
            assert not views[i % n].has_edge(*bad)
            assert dict(table) == before
        if v is None:
            assert table[e] == full[e]
        else:
            assert views[v].has_edge(*e) == (v not in full[e])
    for bad in outside:
        assert table[bad] is None
    for v in (-1, n):  # a vertex off the roadmap is in no band
        off = GraphView(rm, bands=table).avoiding(v)
        assert all(off.has_edge(*e) for e in rm.edge_set)
    assert table == full


def assert_sweep_matches_exhaustive(points, edges, r, lookup_seed=0):
    rm = make_roadmap(points, edges)
    full = full_table(rm, r)
    bands = brute_force_interference(rm, r)
    assert full == bands
    assert {v: masked_by(rm, full, v) for v in range(rm.n_vertices)} == {
        v: frozenset(e for e, band in bands.items() if v in band)
        for v in range(rm.n_vertices)
    }
    assert_lookup_order_is_irrelevant(rm, r, full, lookup_seed)
    report = validate_roadmap(Instance(make_roadmap(points, []), r, (), ()))
    non_finite = [line for line in report.issues if line.startswith("vertex ")]
    assert len(non_finite) == sum(
        not (math.isfinite(x) and math.isfinite(y)) for x, y in rm.points
    )
    assert report.issues == tuple(non_finite + exhaustive_pair_issues(rm.points, r))


_coord = st.one_of(
    st.floats(-12.0, 12.0),
    st.integers(-4, 4).map(float),  # lattice points tie in x, in y and at 2r
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@st.composite
def _sweep_cases(draw):
    points = draw(st.lists(st.tuples(_coord, _coord), max_size=24))
    if points:  # coincident points
        points += draw(st.lists(st.sampled_from(points), max_size=4))
    n = len(points)
    edges = (
        draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
        if n
        else []
    )
    r = draw(
        st.one_of(
            st.floats(-12.0, 2.0).map(lambda k: 10.0**k),  # up to past the extent
            st.sampled_from([0.25, 0.5, 1.0, 1.5]),  # lattice distances at exactly 2r
        )
    )
    return points, edges, r, draw(st.integers(0, 2**32))  # table lookup order


@given(_sweep_cases())
@settings(max_examples=300, deadline=None)
def test_sweep_equals_exhaustive_scans(case):
    assert_sweep_matches_exhaustive(*case)


_T = clearance_threshold(0.5)
# (edge with one end at the origin, unit direction out past that end)
_ENDS = {
    "past right end along x": (((-2.0, 0.0), (0.0, 0.0)), (1.0, 0.0)),
    "past left end along x": (((0.0, 0.0), (2.0, 0.0)), (-1.0, 0.0)),
    "past top end along y": (((0.0, -2.0), (0.0, 0.0)), (0.0, 1.0)),
    "past bottom end along y": (((0.0, 0.0), (0.0, 2.0)), (0.0, -1.0)),
}


@pytest.mark.parametrize("beyond", [0.0, 1e-12])
@pytest.mark.parametrize("where", sorted(_ENDS))
def test_vertex_at_the_threshold_past_an_edge_end(where, beyond):
    (a, b), (dx, dy) = _ENDS[where]
    off = _T + beyond
    points = [a, b, (dx * off, dy * off)]
    rm = make_roadmap(points, [(0, 1)])
    expected = frozenset({2}) if beyond == 0.0 else frozenset()
    assert full_table(rm, 0.5)[(0, 1)] == expected
    assert_sweep_matches_exhaustive(points, [(0, 1)], 0.5)


@pytest.mark.parametrize("beyond", [0.0, 1e-12])
@pytest.mark.parametrize("direction", [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
def test_vertex_pair_at_the_threshold(direction, beyond):
    off = _T + beyond
    points = [(0.0, 0.0), (direction[0] * off, direction[1] * off)]
    report = validate_roadmap(Instance(make_roadmap(points, []), 0.5, (), ()))
    assert len(report.issues) == (1 if beyond == 0.0 else 0)
    assert_sweep_matches_exhaustive(points, [], 0.5)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_sweep_margin_absorbs_rounding_past_the_threshold(axis):
    # ``far`` is one ulp past the rounded ``end + 2r + EPS``, yet ``segdist``
    # and ``dist`` put it within that threshold: a sweep whose margin were
    # the bare threshold would drop it.
    end, far = -2.0, math.nextafter(-2.0 + _T, math.inf)
    assert far > end + _T and dist((end, 0.0), (far, 0.0)) <= _T
    swap = (lambda p: p) if axis == "x" else (lambda p: (p[1], p[0]))
    points = [swap((-4.0, 0.0)), swap((end, 0.0)), swap((far, 0.0))]
    rm = make_roadmap(points, [(0, 1)])
    assert full_table(rm, 0.5)[(0, 1)] == frozenset({2})
    assert_sweep_matches_exhaustive(points, [(0, 1)], 0.5)
    pair = Instance(make_roadmap(points[1:], []), 0.5, (), ())
    assert len(validate_roadmap(pair).issues) == 1


def test_geometry_work_grows_with_the_roadmap_not_its_square(monkeypatch):
    # 45 x 45 lattice, spacing 1, right/up/diagonal edges, built directly so
    # that its size and the counts below do not depend on a sampler.
    side = 45
    points = [(float(i), float(j)) for j in range(side) for i in range(side)]
    edges = []
    for j in range(side):
        for i in range(side):
            v = j * side + i
            if i + 1 < side:
                edges.append((v, v + 1))
            if j + 1 < side:
                edges.append((v, v + side))
            if i + 1 < side and j + 1 < side:
                edges.append((v, v + side + 1))
    rm = make_roadmap(points, edges)
    calls = {"segdist": 0, "dist": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(mapfla.model, "segdist", counted("segdist", segdist))
    monkeypatch.setattr(mapfla.model, "dist", counted("dist", dist))
    cache = full_table(rm, 0.48)
    assert validate_roadmap(Instance(rm, 0.48, (0,), (0,))).ok
    assert any(cache.values())
    # The exhaustive scans make about V segdist calls per edge and V / 2
    # dist calls per vertex.
    assert calls["segdist"] <= 20 * rm.n_edges
    assert calls["dist"] <= 10 * rm.n_vertices


# -- roadmap validation -------------------------------------------------------


def test_separation_exactly_2r_is_violation():
    rm = make_roadmap([(0, 0), (1.0, 0)], [(0, 1)])
    inst = Instance(roadmap=rm, radius=0.5, starts=(0,), goals=(1,))
    report = validate_roadmap(inst)
    assert not report.ok
    assert any("0 and 1" in issue for issue in report.issues)


def test_single_vertex_no_edges_ok():
    rm = make_roadmap([(0, 0)], [])
    inst = Instance(roadmap=rm, radius=0.5, starts=(0,), goals=(0,))
    assert validate_roadmap(inst).ok


def test_duplicate_edge_reported():
    rm = make_roadmap([(0, 0), (3, 0)], [(0, 1), (1, 0)])
    inst = Instance(roadmap=rm, radius=0.5, starts=(0,), goals=(1,))
    report = validate_roadmap(inst)
    assert not report.ok
    assert any("duplicate edge (0, 1)" in issue for issue in report.issues)


def test_self_loop_and_missing_vertex_reported():
    rm = make_roadmap([(0, 0), (3, 0)], [(1, 1), (0, 5)])
    inst = Instance(roadmap=rm, radius=0.5, starts=(0,), goals=(1,))
    report = validate_roadmap(inst)
    issues = " | ".join(report.issues)
    assert "self-loop" in issues
    assert "missing vertex" in issues


def test_edge_lines_keep_edge_order():
    rm = make_roadmap([(0, 0), (3, 0), (6, 0)], [(1, 1), (0, 5), (0, 1), (1, 0), (9, 9)])
    report = validate_roadmap(Instance(roadmap=rm, radius=0.5, starts=(0,), goals=(1,)))
    assert report.issues == (
        "edge (1, 1) is a self-loop",
        "edge (0, 5) references a missing vertex",
        "duplicate edge (0, 1)",
        "edge (9, 9) references a missing vertex",
    )
    assert rm.edge_issues == report.issues


def ref_edge_set(rm):
    return frozenset(edge_key(u, v) for u, v in rm.edge_list if u != v)


def ref_adjacency(rm):
    nbrs = [set() for _ in rm.points]
    for u, v in ref_edge_set(rm):
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(tuple(sorted(s)) for s in nbrs)


def ref_edge_issues(rm):
    n = rm.n_vertices
    issues = []
    seen = set()
    for u, v in rm.edge_list:
        if not (0 <= u < n and 0 <= v < n):
            issues.append(f"edge ({u}, {v}) references a missing vertex")
        elif u == v:
            issues.append(f"edge ({u}, {v}) is a self-loop")
        else:
            k = edge_key(u, v)
            if k in seen:
                issues.append(f"duplicate edge ({k[0]}, {k[1]})")
            seen.add(k)
    return tuple(issues)


@st.composite
def edge_lists(draw):
    """A few vertices and an edge list with ids from -2 to n + 1, in which
    some edges repeat, either way round."""
    n = draw(st.integers(0, 6))
    ids = st.integers(-2, n + 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=12))
    repeats = draw(st.lists(st.tuples(st.integers(0, 99), st.booleans()), max_size=6))
    for i, flip in repeats:
        if edges:
            u, v = edges[i % len(edges)]
            edges.append((v, u) if flip else (u, v))
    return make_roadmap([(3.0 * i, 0.0) for i in range(n)], edges)


@settings(max_examples=500, deadline=None)
@given(edge_lists(), st.permutations(["edge_set", "adjacency", "edge_issues"]))
def test_one_edge_pass_gives_the_three_separate_passes(rm, first):
    """Whichever of the three is read first, the one pass gives what three
    separate passes over the edge list gave; the adjacency, which those
    passes defined on valid roadmaps only, holds the edges between two
    vertices of the roadmap."""
    for name in first:
        getattr(rm, name)
    assert rm.edge_issues == ref_edge_issues(rm)
    assert rm.edge_set == ref_edge_set(rm)
    assert rm.n_edges == len(ref_edge_set(rm))
    n = rm.n_vertices
    valid = make_roadmap(
        rm.points, [(u, v) for u, v in rm.edge_list if 0 <= u < n and 0 <= v < n]
    )
    assert rm.adjacency == ref_adjacency(valid)


TABLES = ("edge_set", "adjacency", "edge_issues", "x_order", "vertex_issues")


@pytest.mark.parametrize("name", TABLES)
def test_reading_any_table_stores_all_five(name):
    """One read of any of the five tables, on a roadmap with a NaN vertex,
    a duplicate edge, a self-loop and an edge to a missing vertex, stores
    all five, each equal to its reference."""
    rm = make_roadmap(
        [(0.0, 0.0), (3.0, 0.0), (math.nan, 1.0), (6.0, 0.0)],
        [(0, 1), (1, 0), (3, 3), (1, 7), (1, 3)],
    )
    getattr(rm, name)
    tables = vars(rm)
    assert set(TABLES) <= tables.keys()
    valid = make_roadmap(rm.points, [(0, 1), (1, 3)])
    assert tables["edge_set"] == ref_edge_set(rm)
    assert tables["adjacency"] == ref_adjacency(valid)
    assert tables["edge_issues"] == ref_edge_issues(rm)
    assert repr(tables["x_order"]) == repr(ref_x_order(rm.points))
    assert tables["vertex_issues"] == ref_vertex_issues(rm.points)


def test_a_solve_its_validation_and_the_oracle_build_the_tables_once(monkeypatch):
    """On a fresh toy, a solve, a replay of its plan and an oracle search
    call ``Roadmap._tables`` once between them."""
    calls = []
    build = Roadmap._tables

    def spy(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(Roadmap, "_tables", spy)
    inst = toy_instance(0)
    result = solve(inst)
    assert result.plan is not None and validate_plan(inst, result.plan).ok
    assert joint_bfs_solve(inst).status == "solved"
    assert calls == [inst.roadmap]


def test_non_injective_starts_reported():
    rm = make_roadmap([(0, 0), (3, 0), (6, 0)], [(0, 1), (1, 2)])
    inst = Instance(roadmap=rm, radius=0.5, starts=(0, 0), goals=(1, 2))
    report = validate_roadmap(inst)
    assert not report.ok
    assert any("start vertex 0" in issue for issue in report.issues)


def test_bad_radius_reported():
    rm = make_roadmap([(0, 0)], [])
    inst = Instance(roadmap=rm, radius=-1.0, starts=(0,), goals=(0,))
    assert not validate_roadmap(inst).ok


_LINE = make_roadmap([(1.2 * i, 0.0) for i in range(3)], [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "edges, starts, goals, issues",
    [
        ((), (5,), (1,), ("start of agent 0 is missing vertex 5",)),
        ((), (0,), (-1,), ("goal of agent 0 is missing vertex -1",)),
        ((), (0, 0), (1, 2), ("start vertex 0 assigned to agents 0 and 1",)),
        ((), (0, 1), (2,), ("2 starts but 1 goals",)),
        (
            ((1, 1),),
            (0, 7, 0, -2),
            (1, 1, 9),
            (
                "edge (1, 1) is a self-loop",
                "start of agent 1 is missing vertex 7",
                "start of agent 3 is missing vertex -2",
                "start vertex 0 assigned to agents 0 and 2",
                "goal of agent 2 is missing vertex 9",
                "goal vertex 1 assigned to agents 0 and 1",
                "4 starts but 3 goals",
            ),
        ),
    ],
)
def test_malformed_assignment_report_is_pinned(edges, starts, goals, issues):
    rm = make_roadmap(_LINE.points, _LINE.edge_list + edges)
    report = validate_roadmap(Instance(rm, 0.3, starts, goals))
    assert not report.ok
    assert report.issues == issues
    assert tuple(assignment_issues(Instance(rm, 0.3, starts, goals))) == tuple(
        line for line in issues if "self-loop" not in line
    )


# -- state helpers ------------------------------------------------------------


def test_apply_move_moves_one_agent():
    state = apply_move(State((0, 2)), Move(0, 0, 1))
    assert state == State((1, 2))


def test_apply_move_rejects_absent_agent():
    with pytest.raises(ValueError):
        apply_move(State((0,)), Move(3, 0, 1))
    with pytest.raises(ValueError):
        apply_move(State((0,)), Move(0, 1, 2))


def test_apply_move_rejects_occupied_target():
    with pytest.raises(ValueError):
        apply_move(State((0, 1)), Move(0, 0, 1))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_apply_move_involution(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    k = rng.randint(1, n - 1)
    positions = tuple(rng.sample(range(n), k))
    agent = rng.randrange(k)
    free = [v for v in range(n) if v not in positions]
    target = rng.choice(free)
    mv = Move(agent, positions[agent], target)
    state = State(positions)
    roundtrip = apply_move(apply_move(state, mv), Move(agent, target, positions[agent]))
    assert roundtrip == state
