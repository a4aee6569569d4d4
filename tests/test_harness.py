import pytest

from mapfla.geometry import dist
from mapfla.harness import (
    PRESETS,
    BenchReport,
    RoadmapGenError,
    gen_preset,
    gen_roadmap,
    gen_scenario,
    instance_from_scenario,
    run_bench,
)
from mapfla.model import Instance, validate_roadmap


def test_gen_roadmap_single_vertex():
    rm = gen_roadmap(1, 4.0, 1.0, (5, 5), seed=0)
    assert rm.n_vertices == 1
    assert rm.n_edges == 0


def test_gen_roadmap_deterministic():
    a = gen_roadmap(40, 3.5, 1.0, (12, 12), seed=9)
    b = gen_roadmap(40, 3.5, 1.0, (12, 12), seed=9)
    assert a.points == b.points
    assert a.edge_list == b.edge_list
    c = gen_roadmap(40, 3.5, 1.0, (12, 12), seed=10)
    assert c.points != a.points


def test_gen_roadmap_respects_separation():
    rm = gen_roadmap(50, 4.0, 1.0, (14, 14), seed=3)
    for u in range(rm.n_vertices):
        for v in range(u + 1, rm.n_vertices):
            assert dist(rm.points[u], rm.points[v]) >= 1.0


def test_gen_roadmap_connected():
    rm = gen_roadmap(60, 4.0, 1.0, (16, 16), seed=4)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in rm.neighbors(u):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert seen == set(range(rm.n_vertices))


def test_gen_roadmap_infeasible_extent_raises():
    with pytest.raises(RoadmapGenError):
        gen_roadmap(100, 4.0, 1.0, (3, 3), seed=0)


def test_sparse_preset_matches_published_shape():
    rm, radius = gen_preset("sparse-like", 0)
    assert abs(rm.n_vertices - 158) <= 8
    assert abs(rm.n_edges - 349) <= 20
    assert 2 * radius < 1.0
    inst = Instance(rm, radius, (0,), (1,))
    assert validate_roadmap(inst).ok


def test_presets_exist():
    assert set(PRESETS) == {"sparse-like", "dense-like"}


def test_gen_scenario_properties():
    rm, _ = gen_preset("sparse-like", 0)
    sc = gen_scenario(rm, 40, seed=1)
    starts = [s for s, _ in sc.pairs]
    goals = [g for _, g in sc.pairs]
    assert len(sc.pairs) == 40
    assert len(set(starts)) == 40
    assert len(set(goals)) == 40
    assert gen_scenario(rm, 40, seed=1) == sc
    assert gen_scenario(rm, 40, seed=2) != sc


def test_gen_scenario_full_permutation():
    rm = gen_roadmap(12, 3.0, 1.0, (8, 8), seed=2)
    sc = gen_scenario(rm, rm.n_vertices, seed=0)
    assert sorted(s for s, _ in sc.pairs) == list(range(rm.n_vertices))


def test_gen_scenario_too_many_pairs():
    rm = gen_roadmap(5, 3.0, 1.0, (8, 8), seed=2)
    with pytest.raises(ValueError):
        gen_scenario(rm, rm.n_vertices + 1, seed=0)


def test_instance_prefix_property():
    rm, radius = gen_preset("sparse-like", 0)
    sc = gen_scenario(rm, 40, seed=1)
    for n in (1, 2, 17, 40):
        inst = instance_from_scenario(rm, radius, sc, n)
        assert inst.starts == tuple(s for s, _ in sc.pairs[:n])
        assert inst.goals == tuple(g for _, g in sc.pairs[:n])
    assert instance_from_scenario(rm, radius, sc).n_agents == 40
    for n in (41, 0, -3):
        with pytest.raises(ValueError):
            instance_from_scenario(rm, radius, sc, n)


def _small_bench(jobs=1):
    rm = gen_roadmap(24, 3.6, 1.0, (9, 9), seed=6)
    scens = [gen_scenario(rm, 6, seed=i, name="tiny") for i in range(4)]
    return run_bench(
        {"tiny": (rm, 0.48)},
        {"tiny": scens},
        ["la", "naive"],
        [2, 4, 6],
        time_limit=5.0,
        jobs=jobs,
    )


def test_run_bench_counts_sum_and_rates():
    report = _small_bench()
    assert len(report.rows) == 6
    for row in report.rows:
        assert row.solved + row.failed + row.timeout == 4
        assert row.success_rate == pytest.approx(row.solved / 4)
        assert row.mean_ms >= 0


def test_run_bench_reproducible_outcomes():
    a = _small_bench()
    b = _small_bench(jobs=2)
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.roadmap, ra.mode, ra.n) == (rb.roadmap, rb.mode, rb.n)
        assert (ra.solved, ra.failed) == (rb.solved, rb.failed)


def test_run_bench_la_dominates_naive():
    report = _small_bench()
    for n in (2, 4, 6):
        la = report.cell("tiny", "la", n)
        naive = report.cell("tiny", "naive", n)
        assert la.success_rate >= naive.success_rate


def test_bench_report_csv_shape():
    report = _small_bench()
    lines = report.to_csv().splitlines()
    assert lines[0] == "roadmap,mode,n,solved,failed,timeout,success_rate,mean_ms"
    assert len(lines) == 1 + len(report.rows)
    fields = lines[1].split(",")
    assert fields[0] == "tiny"
    assert fields[1] in ("la", "naive")
    int(fields[2]), int(fields[3]), int(fields[4]), int(fields[5])
    float(fields[6]), float(fields[7])


def test_empty_bench_is_empty_report():
    report = run_bench({}, {}, ["la"], [2], time_limit=1.0)
    assert report.rows == ()
    assert report.to_csv().splitlines() == [BenchReport.CSV_HEADER]
