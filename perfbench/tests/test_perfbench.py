"""Tests of the benchmark itself: run contract, tracer arithmetic, the
correctness gate and agreement with the package's own bench harness.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mapfla import harness, oracle, solver
from mapfla.model import Move
from perfbench.layers import PER_LAYER, PROBES
from perfbench.speed import PROBE_EVERY_S, Speedometer
from perfbench.tracer import Patched, Probe, Tracer
from perfbench.workloads import (
    WORKLOADS,
    BenchFailure,
    run_pass,
    setup_sparse_sweep,
    setup_toy_oracle,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


# -- run contract ---------------------------------------------------------


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_untraced_run_prints_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_matches_untraced_digest():
    args = ("--workload", "sparse-sweep", "--seed", "4", "--seconds", "1")
    untraced = _result(_run(*args, "--trace", "0"))
    traced = _result(_run(*args, "--trace", "1"))
    assert {m["name"] for m in SPEC["per_layer"]} == set(traced["metrics"])
    assert [name for name, _ in PER_LAYER] == [m["name"] for m in SPEC["per_layer"]]
    assert traced["attempted"] == untraced["attempted"]
    out = ROOT / "perfbench" / "out"
    digests = {
        json.loads((out / f"sparse-sweep-seed4-trace{t}.json").read_text())["digest"]
        for t in (0, 1)
    }
    assert len(digests) == 1


def test_benchmark_spec_names_only_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fails_without_the_package():
    bare = ROOT / "perfbench" / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            ROOT / "perfbench",
            bare / "perfbench",
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        done = _run("--workload", "toy-oracle", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_same_seed_same_digest():
    a = run_pass(setup_toy_oracle(7, 6))
    b = run_pass(setup_toy_oracle(7, 6))
    c = run_pass(setup_toy_oracle(8, 6))
    assert a.digest() == b.digest() != c.digest()


# -- tracer arithmetic ----------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _spans(tracer):
    spans, _ = tracer.totals()
    return {layer: (calls, round(self_s, 9)) for layer, (calls, self_s) in spans.items()}


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    t = Tracer(clock)
    t.enter("outer")
    clock.now = 1.0
    t.enter("child")
    clock.now = 3.0
    t.exit()  # child: 2 s
    clock.now = 4.0
    t.enter("other")
    clock.now = 4.5
    t.exit()  # other: 0.5 s
    clock.now = 5.0
    assert t.exit() == 5.0
    assert _spans(t) == {"outer": (1, 2.5), "child": (1, 2.0), "other": (1, 0.5)}


def test_self_time_of_recursive_spans_adds_up():
    clock = FakeClock()
    t = Tracer(clock)
    # f(0..1) -> f(1..3) -> f(1.5..2); each level's own time counted once.
    t.enter("f")
    clock.now = 1.0
    t.enter("f")
    clock.now = 1.5
    t.enter("f")
    clock.now = 2.0
    t.exit()
    clock.now = 3.0
    t.exit()
    clock.now = 4.0
    t.exit()
    assert _spans(t) == {"f": (3, 4.0)}


def test_spans_are_aggregated_per_label():
    clock = FakeClock()
    t = Tracer(clock)
    for label, length in ((0, 1.0), (1, 2.0), (1, 3.0)):
        t.label = label
        t.enter("x")
        clock.now += length
        t.exit()
    t.count("x", {"n": 2})
    assert t.spans == {(0, "x"): [1, 1.0], (1, "x"): [2, 5.0]}
    assert t.totals(exclude=(0,))[0] == {"x": [2, 5.0]}
    assert {"label": 1, "counter": "x.n", "value": 2} in t.records()


# -- patching -------------------------------------------------------------


def test_patching_restores_attributes_and_reports_absent_layers():
    original_move_la = solver.Workspace.move_la
    original_solve = solver.solve
    probes = (
        Probe("solver.move_la", ("mapfla.solver:Workspace.move_la",)),
        Probe("solver.outer", ("mapfla.solver:solve",)),
        Probe("gone.function", ("mapfla.solver:no_such_function",)),
        Probe("gone.class", ("mapfla.solver:NoSuchClass.method",)),
        Probe("gone.module", ("mapfla.no_such_module:f",)),
    )
    with Patched(Tracer(), probes) as patched:
        assert solver.Workspace.move_la is not original_move_la
        assert solver.solve is not original_solve
    assert patched.absent == ["gone.function", "gone.class", "gone.module"]
    assert solver.Workspace.move_la is original_move_la
    assert solver.solve is original_solve


def test_patching_restores_attributes_after_an_error():
    original = solver.bfs_dists
    with pytest.raises(RuntimeError):
        with Patched(Tracer(), PROBES):
            raise RuntimeError("boom")
    assert solver.bfs_dists is original


def test_traced_pass_has_untraced_digest_and_consistent_counts():
    cases = setup_sparse_sweep(2, 6)
    untraced = run_pass(cases)
    tracer = Tracer()
    with Patched(tracer, PROBES) as patched:
        traced = run_pass(cases, tracer)
    assert patched.absent == []
    assert traced.digest() == untraced.digest()
    spans, counters = tracer.totals(exclude=("setup",))
    assert spans["solver.outer"][0] == traced.solves
    assert spans["model.build_interference"][0] == traced.solves
    assert spans["solver.move_la"][0] == traced.stats["move_la_calls"]
    assert spans["validator.validate_plan"][0] == sum(traced.solved.values())
    assert counters["validator.validate_plan.moves_replayed"] == sum(traced.plan_moves)


def test_times_are_scaled_by_the_slowdown_of_their_moment():
    class Fixed:
        samples = []

        def slowdown(self):
            return 2.0

    result = run_pass(setup_toy_oracle(5, 3), speed=Fixed())
    assert result.at_reference("solve") == [t / 2.0 for t in result.solve_s]
    assert result.at_reference("case") == [t / 2.0 for t in result.case_s]
    assert len(result.at_reference("oracle")) == 3


def test_speedometer_throttles_its_probes():
    clock = FakeClock()
    meter = Speedometer(clock=clock)
    meter.slowdown()
    meter.slowdown()
    clock.now = 2 * PROBE_EVERY_S
    meter.slowdown()
    assert len(meter.samples) == 2


# -- correctness gate -----------------------------------------------------


def test_invalid_plan_fails_the_run(monkeypatch):
    real_solve = solver.solve

    def bad_solve(instance, config=None):
        result = real_solve(instance, config)
        bogus = [Move(0, instance.starts[0], instance.starts[0])]
        return solver.SolveResult(solver.SOLVED, bogus, result.stats)

    monkeypatch.setattr(solver, "solve", bad_solve)
    with pytest.raises(BenchFailure, match="invalid plan"):
        run_pass(setup_sparse_sweep(1, 2))


def test_oracle_disagreement_fails_the_run(monkeypatch):
    cases = setup_toy_oracle(3, 4)
    monkeypatch.setattr(
        oracle, "joint_bfs_solve", lambda inst: oracle.OracleResult(oracle.UNSOLVABLE, None, 1)
    )
    with pytest.raises(BenchFailure, match="oracle says"):
        run_pass(cases)


def test_plan_shorter_than_oracle_minimum_fails_the_run(monkeypatch):
    cases = setup_toy_oracle(3, 4)
    real = oracle.joint_bfs_solve

    def padded(instance):
        found = real(instance)
        plan = found.plan + found.plan[::-1] * 50 if found.plan else found.plan
        return oracle.OracleResult(found.status, plan, found.expanded)

    monkeypatch.setattr(oracle, "joint_bfs_solve", padded)
    with pytest.raises(BenchFailure, match="below the oracle minimum"):
        run_pass(cases)


# -- agreement with the package's harness ---------------------------------


def test_sparse_sweep_solved_counts_match_run_bench():
    cases = setup_sparse_sweep(0, 8)
    result = run_pass(cases)
    roadmap, radius = harness.gen_preset("sparse-like", 0)
    solved = {}
    for case in cases:
        _, n, s = case.key
        scenario = harness.gen_scenario(roadmap, 40, seed=s, name="sparse-like")
        report = harness.run_bench(
            {"sparse-like": (roadmap, radius)},
            {"sparse-like": [scenario]},
            ("la", "naive"),
            [n],
            time_limit=60.0,
            jobs=1,
        )
        for mode in ("la", "naive"):
            solved[mode] = solved.get(mode, 0) + report.cell("sparse-like", mode, n).solved
    assert solved == {mode: result.solved.get(mode, 0) for mode in ("la", "naive")}
