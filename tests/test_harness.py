import concurrent.futures
import logging
import math
import re

import pytest

from mapfla import harness
from mapfla.geometry import dist
from mapfla.harness import (
    PRESETS,
    BenchReport,
    BenchSoundnessError,
    RoadmapGenError,
    gen_preset,
    gen_roadmap,
    gen_scenario,
    instance_from_scenario,
    run_bench,
)
from mapfla.model import Instance, Roadmap, validate_roadmap
from mapfla.validator import PlanReport


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
        for w in rm.adjacency[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert seen == set(range(rm.n_vertices))


def test_gen_roadmap_infeasible_extent_raises():
    with pytest.raises(RoadmapGenError):
        gen_roadmap(100, 4.0, 1.0, (3, 3), seed=0)


@pytest.mark.parametrize(
    "args, name",
    [
        ((20, 4.0, 1.0, (math.nan, 8.0), 0), "extent"),
        ((20, 4.0, 1.0, (8.0, math.inf), 0), "extent"),
        ((20, 4.0, 1.0, (-8.0, 8.0), 0), "extent"),
        ((20, 4.0, 1.0, (8.0, -0.5), 0), "extent"),
        ((20, 4.0, math.nan, (8.0, 8.0), 0), "min_separation"),
        ((20, 4.0, math.inf, (8.0, 8.0), 0), "min_separation"),
        ((20, 4.0, -1.0, (8.0, 8.0), 0), "min_separation"),
        ((20, math.nan, 1.0, (8.0, 8.0), 0), "target_degree"),
        ((20, math.inf, 1.0, (8.0, 8.0), 0), "target_degree"),
        ((20, -3.0, 1.0, (8.0, 8.0), 0), "target_degree"),
        ((0, 4.0, 1.0, (8.0, 8.0), 0), "n_vertices"),
    ],
)
def test_gen_roadmap_rejects_meaningless_parameters(args, name):
    with pytest.raises(ValueError, match=name):
        gen_roadmap(*args)


def test_gen_roadmap_accepts_zero_separation_and_zero_extent():
    assert gen_roadmap(20, 4.0, 0.0, (8.0, 8.0), 0).n_vertices == 20
    assert gen_roadmap(1, 4.0, 1.0, (0.0, 0.0), 0).n_vertices == 1
    line = gen_roadmap(10, 2.0, 0.5, (8.0, 0.0), 0)
    assert line.n_vertices > 1 and all(y == 0.0 for _, y in line.points)
    with pytest.raises(RoadmapGenError, match="too tight"):
        gen_roadmap(2, 4.0, 1.0, (0.0, 0.0), 0)


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


def test_run_bench_counts_sum_and_rates(caplog):
    caplog.set_level(logging.INFO, logger="mapfla.harness")
    report = _small_bench()
    assert len(report.rows) == 6
    for row in report.rows:
        assert row.solved + row.failed + row.timeout == 4
        assert row.success_rate == pytest.approx(row.solved / 4)
        assert row.mean_ms >= 0
    lines = [r for r in caplog.records if r.name == "mapfla.harness"]
    assert [r.getMessage() for r in lines] == [
        f"bench tiny {row.mode} n={row.n}: {row.solved}/4 solved" for row in report.rows
    ]
    assert {(r.funcName, r.filename) for r in lines} == {("run_bench", "harness.py")}


def test_run_bench_reproducible_outcomes():
    a = _small_bench()
    b = _small_bench(jobs=2)
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.roadmap, ra.mode, ra.n) == (rb.roadmap, rb.mode, rb.n)
        assert (ra.solved, ra.failed) == (rb.solved, rb.failed)


def test_serial_runs_on_fresh_roadmaps_print_the_same_solve_lines(caplog):
    """At ``jobs=1`` the tasks run in grid order in this process, so each
    ``solve:`` line's band and hop-table counts repeat from run to run."""
    caplog.set_level(logging.INFO, logger="mapfla.solver")
    runs = []
    for _ in range(2):
        caplog.clear()
        rm, radius = gen_preset("sparse-like", 2)
        scens = [gen_scenario(rm, 12, seed=i, name="sparse") for i in range(3)]
        run_bench({"sparse": (rm, radius)}, {"sparse": scens}, ["la", "naive"], [4, 8, 12],
                  time_limit=60.0)
        runs.append([
            re.sub(r", [0-9.]+ ms, ", ", ms, ", r.getMessage())
            for r in caplog.records if r.getMessage().startswith("solve: ")
        ])
    assert len(runs[0]) == 2 * 3 * 3 and runs[0] == runs[1]
    assert all(", ms, " in line for line in runs[0])


def test_run_bench_la_dominates_naive():
    report = _small_bench()
    for n in (2, 4, 6):
        la = report.cell("tiny", "la", n)
        naive = report.cell("tiny", "naive", n)
        assert la.success_rate >= naive.success_rate


def test_bench_report_cell_raises_key_error_for_a_missing_cell():
    report = _small_bench()
    with pytest.raises(KeyError) as raised:
        report.cell("tiny", "la", 3)
    assert raised.value.args == (("tiny", "la", 3),)


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


def test_run_bench_rejects_a_repeated_mode():
    with pytest.raises(ValueError, match="repeat a mode"):
        run_bench({}, {}, ["la", "la"], [2], time_limit=1.0)


def test_run_bench_rejects_an_unknown_mode_before_solving(monkeypatch):
    solves = []
    monkeypatch.setattr(harness, "solve", lambda *a, **k: solves.append(a))
    rm = gen_roadmap(24, 3.6, 1.0, (9, 9), seed=6)
    scens = [gen_scenario(rm, 6, seed=0, name="tiny")]
    with pytest.raises(ValueError, match="unknown mode 'foo'"):
        run_bench({"tiny": (rm, 0.48)}, {"tiny": scens}, ["la", "foo"], [2], 5.0)
    assert solves == []


@pytest.mark.parametrize("n_values", [[2, 6, 7], [0, 2]])
def test_run_bench_rejects_agent_counts_outside_pairs_before_solving(monkeypatch, n_values):
    solves = []
    monkeypatch.setattr(harness, "solve", lambda *a, **k: solves.append(a))
    rm = gen_roadmap(24, 3.6, 1.0, (9, 9), seed=6)
    scens = [gen_scenario(rm, pairs, seed=pairs, name="tiny") for pairs in (8, 6)]
    with pytest.raises(ValueError, match=r"agent counts \[.*\] must lie in 1\.\.6"):
        run_bench({"tiny": (rm, 0.48)}, {"tiny": scens}, ["la"], n_values, 5.0)
    assert solves == []


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs the
    initializer and maps in-process."""

    created: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.created.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [(100_000, 4, 4), (3, 4, 3), (100_000, 64, 24), (100_000, None, None), (2, 1, None)],
)
def test_run_bench_caps_workers_at_cpus_and_tasks(monkeypatch, jobs, cpus, workers):
    # 24 tasks: 2 modes x 3 agent counts x 4 scenarios.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "created", [])
    # The in-process initializer sets the worker's roadmaps; undo it after.
    monkeypatch.setattr(harness, "_worker_roadmaps", {})
    report = _small_bench(jobs=jobs)
    assert _RecordingPool.created == ([] if workers is None else [workers])
    assert [(r.solved, r.failed) for r in report.rows] == [
        (r.solved, r.failed) for r in _small_bench().rows
    ]


def test_run_bench_sends_each_roadmap_to_a_worker_once(monkeypatch):
    sent = []

    class Pool(_RecordingPool):
        def __init__(self, max_workers, initializer, initargs):
            sent.append(initargs)
            super().__init__(max_workers, initializer, initargs)

        def map(self, fn, tasks, chunksize=1):
            sent.append(list(tasks))
            return map(fn, sent[-1])

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(harness, "_worker_roadmaps", {})
    report = _small_bench(jobs=2)
    [(roadmaps,), tasks] = sent
    assert list(roadmaps) == ["tiny"]
    assert len(tasks) == 24
    assert all(task[0] == "tiny" for task in tasks)
    assert not any(isinstance(x, Roadmap) for task in tasks for x in task)
    serial = _small_bench().rows
    assert [r._replace(mean_ms=0) for r in report.rows] == [
        r._replace(mean_ms=0) for r in serial
    ]


@pytest.mark.parametrize("jobs, workers", [(1, []), (2, [2])], ids=["serial", "pool"])
def test_a_rejected_plan_aborts_the_bench_naming_its_task(monkeypatch, jobs, workers):
    # The validator rejects the plan of scenario 2 at n = 4, which la solves.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(harness, "_worker_roadmaps", {})
    rm = gen_roadmap(24, 3.6, 1.0, (9, 9), seed=6)
    rejected = instance_from_scenario(rm, 0.48, gen_scenario(rm, 6, seed=2), 4).starts
    validate = harness.validate_plan

    def rejecting(instance, plan):
        if instance.starts == rejected:
            return PlanReport(ok=False, failed_index=0, reason="move 0: rejected")
        return validate(instance, plan)

    monkeypatch.setattr(harness, "validate_plan", rejecting)
    with pytest.raises(
        BenchSoundnessError,
        match=r"^solver bug: plan for roadmap=tiny mode=la n=4 scenario=2 failed",
    ):
        _small_bench(jobs=jobs)
    assert _RecordingPool.created == workers


def test_serial_run_bench_shares_the_callers_roadmap_and_leaves_no_state():
    rm = gen_roadmap(24, 3.6, 1.0, (9, 9), seed=6)
    scens = [gen_scenario(rm, 6, seed=i, name="tiny") for i in range(4)]
    run_bench({"tiny": (rm, 0.48)}, {"tiny": scens}, ["la"], [6], time_limit=5.0)
    assert len(rm.interference_tables[0.48]) > 0
    assert harness._worker_roadmaps == {}


def test_empty_bench_is_empty_report():
    report = run_bench({}, {}, ["la"], [2], time_limit=1.0)
    assert report.rows == ()
    assert report.to_csv().splitlines() == [BenchReport.CSV_HEADER]
