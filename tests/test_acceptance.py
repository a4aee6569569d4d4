"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its headline numbers.  Run with ``pytest -s`` to watch
the lines stream; the whole module is self-contained and seeded.
"""

import os
import time

import numpy as np

import fuzz_contracts
from helpers import (
    full_table,
    fuzz_instance,
    ordering_instance,
    star_instance,
    tiny_instance,
)
from mapfla.geometry import segdist
from mapfla.harness import (
    gen_preset,
    gen_roadmap,
    gen_scenario,
    instance_from_scenario,
    run_bench,
)
from mapfla.model import edge_key
from mapfla.oracle import SOLVED as ORACLE_SOLVED
from mapfla.oracle import UNSOLVABLE, joint_bfs_solve
from mapfla.solver import FAILED, SOLVED, SolverConfig, solve
from mapfla import fileio
from mapfla.validator import validate_plan

JOBS = min(4, os.cpu_count() or 1)


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})", flush=True)


def test_criterion_1_plan_soundness_unconditional():
    t0 = time.time()
    solved = validated = 0
    for seed in range(1000):
        inst = fuzz_instance(seed)
        for mode in ("la", "naive"):
            result = solve(inst, SolverConfig(mode=mode, time_limit=2.0))
            if result.status == SOLVED:
                solved += 1
                assert validate_plan(inst, result.plan).ok, (seed, mode)
                validated += 1
    assert solved == validated
    assert solved > 800
    report(
        "1 plan-soundness",
        f"{validated}/{solved} solved plans validated over 2000 runs, "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_2_oracle_soundness():
    t0 = time.time()
    checked = agreements = 0
    for seed in range(500):
        inst = tiny_instance(seed)
        for mode in ("la", "naive"):
            result = solve(inst, SolverConfig(mode=mode, time_limit=2.0))
            if result.status == SOLVED:
                checked += 1
                oracle = joint_bfs_solve(inst, node_budget=500_000)
                assert oracle.status == ORACLE_SOLVED, (seed, mode)
                agreements += 1
    assert checked == agreements
    assert checked > 400
    report(
        "2 oracle-soundness",
        f"solver-solved implies oracle-solvable on {checked} instances, "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_3_star_regression():
    inst = star_instance()
    oracle = joint_bfs_solve(inst)
    assert oracle.status == UNSOLVABLE
    assert oracle.expanded == 1  # the start state has no successor at all
    t0 = time.time()
    result = solve(inst, SolverConfig(time_limit=1.0))
    elapsed = time.time() - t0
    assert result.status == FAILED
    assert elapsed < 1.0
    report(
        "3 star-regression",
        f"oracle=unsolvable (full enumeration), solver=failed in {elapsed * 1e3:.0f}ms",
    )


def test_criterion_4_ordering_regression():
    inst = ordering_instance()
    idx = solve(inst, SolverConfig(order="index", time_limit=10.0))
    assert idx.status == FAILED
    restarts = solve(inst, SolverConfig(order="random-restarts:10:1", time_limit=10.0))
    assert restarts.status == SOLVED
    assert validate_plan(inst, restarts.plan).ok
    reverse = solve(inst, SolverConfig(order=(1, 0), time_limit=10.0))
    assert reverse.status == SOLVED
    assert validate_plan(inst, reverse.plan).ok
    report(
        "4 ordering-regression",
        "index order fails; reversed order and random-restarts(10) both "
        f"solve with validating plans ({len(reverse.plan)} moves)",
    )


def test_criterion_5_procedure_contracts():
    t0 = time.time()
    checks = 0
    checks += fuzz_contracts.fuzz_move_la(range(300))
    checks += fuzz_contracts.fuzz_push_along_path(range(300, 600))
    checks += fuzz_contracts.fuzz_edge_cleaning(range(600, 900))
    checks += fuzz_contracts.fuzz_transactional_rollback(range(900, 1200))
    assert checks >= 10_000
    report(
        "5 procedure-contracts",
        f"{checks} contract assertions across the four fuzzed suites, "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_6_comparative_success_rate():
    t0 = time.time()
    # matches `mapfla bench --preset sparse-like --seed 0 --n 2..40`
    roadmap, radius = gen_preset("sparse-like", 0)
    scenarios = [
        gen_scenario(roadmap, 40, seed=i, name="sparse-like") for i in range(25)
    ]
    n_values = list(range(2, 41))
    bench = run_bench(
        {"sparse-like": (roadmap, radius)},
        {"sparse-like": scenarios},
        ["la", "naive"],
        n_values,
        time_limit=30.0,
        jobs=JOBS,
    )
    for n in n_values:
        la = bench.cell("sparse-like", "la", n)
        naive = bench.cell("sparse-like", "naive", n)
        assert la.success_rate >= naive.success_rate, n
    la40 = bench.cell("sparse-like", "la", 40)
    naive40 = bench.cell("sparse-like", "naive", 40)
    assert la40.solved > naive40.solved
    assert naive40.success_rate <= 0.20
    assert la40.success_rate >= 0.50
    report(
        "6 comparative-success-rate",
        f"la dominates naive at every n in 2..40; at n=40 "
        f"la={la40.success_rate:.2f} vs naive={naive40.success_rate:.2f}, "
        f"{time.time() - t0:.0f}s",
    )


def _segdist_numpy(p, a, b):
    ab = b - a
    norm_sq = np.einsum("ij,ij->i", ab, ab)
    t = np.einsum("ij,ij->i", p - a, ab) / np.where(norm_sq > 0, norm_sq, 1.0)
    t = np.clip(np.where(norm_sq > 0, t, 0.0), 0.0, 1.0)
    closest = a + t[:, None] * ab
    return np.hypot(*(p - closest).T)


def test_criterion_7_geometry():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    triples = rng.uniform(-10, 10, (10_000, 3, 2))
    ts = np.linspace(0.0, 1.0, 100_001)
    worst = 0.0
    for chunk in np.array_split(triples, 100):
        p, a, b = chunk[:, 0], chunk[:, 1], chunk[:, 2]
        dx = np.outer(b[:, 0] - a[:, 0], ts)
        dx += (a[:, 0] - p[:, 0])[:, None]
        np.square(dx, out=dx)
        dy = np.outer(b[:, 1] - a[:, 1], ts)
        dy += (a[:, 1] - p[:, 1])[:, None]
        np.square(dy, out=dy)
        dx += dy
        sampled = np.sqrt(dx.min(axis=1))
        exact = np.array(
            [segdist(tuple(pp), tuple(aa), tuple(bb)) for pp, aa, bb in chunk]
        )
        worst = max(worst, float(np.max(np.abs(exact - sampled))))
    assert worst <= 1e-6

    # interference cache equals an independent vectorized recomputation
    roadmaps = [gen_preset("sparse-like", 0), gen_preset("dense-like", 0)]
    for seed in range(6):
        roadmaps.append((gen_roadmap(20 + 7 * seed, 3.8, 1.0, (14, 14), seed), 0.45))
    for roadmap, radius in roadmaps:
        cache = full_table(roadmap, radius)
        pts = np.array(roadmap.points)
        threshold = 2 * radius + 1e-9
        for u, v in roadmap.edge_set:
            a = np.repeat(pts[None, u], len(pts), axis=0)
            b = np.repeat(pts[None, v], len(pts), axis=0)
            d = _segdist_numpy(pts, a, b)
            expected = {
                w
                for w in range(len(pts))
                if w not in (u, v) and d[w] <= threshold
            }
            assert cache[edge_key(u, v)] == expected
    report(
        "7 geometry",
        f"segdist vs 1e5-sample minimization within {worst:.1e} on 1e4 triples; "
        f"cache exact on {len(roadmaps)} roadmaps, {time.time() - t0:.0f}s",
    )


def test_criterion_8_format_round_trips():
    roadmap, radius = gen_preset("sparse-like", 11)
    map_text = fileio.dumps_roadmap(roadmap, radius)
    rm2, r2 = fileio.loads_roadmap(map_text)
    assert fileio.dumps_roadmap(rm2, r2) == map_text

    scenario = gen_scenario(roadmap, 12, seed=4, name="sparse-like-11.map")
    scen_text = fileio.dumps_scenario(scenario.roadmap_name, scenario.pairs)
    name2, pairs2 = fileio.loads_scenario(scen_text)
    assert fileio.dumps_scenario(name2, pairs2) == scen_text

    instance = instance_from_scenario(roadmap, radius, scenario, 6)
    result = solve(instance, SolverConfig(time_limit=10.0))
    assert result.status == SOLVED
    plan_text = fileio.dumps_plan(result.plan)
    assert fileio.dumps_plan(fileio.loads_plan(plan_text)) == plan_text
    report(
        "8 format-round-trips",
        f"roadmap/scenario/plan serialize-parse-serialize byte-stable "
        f"({len(result.plan)}-move plan)",
    )
