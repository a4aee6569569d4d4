#!/usr/bin/env python3
"""The mapfla benchmark.

Run one workload in a fresh process (the form an automated comparison uses)::

    python3 perfbench/run.py --workload sparse-sweep --seed 1 --seconds 25 --trace 0

Run every workload, untraced then traced, each in its own process, and print
every metric with its unit and sample count plus the outcome digests::

    python3 perfbench/run.py --seed 1

Workloads (see ``workloads.py``): sparse-sweep, sparse-crowded, dense-fresh
and toy-oracle.  A run sizes its work from ``--seconds`` and builds its inputs
from ``--seed``.  It does its set-up (the package import, timed in a fresh
interpreter, then generation and one untimed warm-up solve) ``SETUP_REPEATS``
times and reports the median, then runs every case once.  Every solved
plan is replayed by the validator; on toy-oracle the oracle must agree.  Any
wrong output exits with status 1 and prints no metrics.

Reported times are wall times scaled to reference machine speed: each is
divided by the slowdown a package-independent loop showed at that moment
(``speed.py``).  The times as read off the clock are printed and recorded
beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the cases
untraced, then traced, checks that both give the same outcome digest, and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Each run also
writes a record (and, traced, the aggregated spans) under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
DEFAULT_SECONDS = 25
PACKAGE = ("harness", "model", "oracle", "solver", "validator")

# Run in a fresh interpreter, with the source directory and the checkout as
# arguments: import every measured module of the package, then read the
# machine's slowdown in that same process; print the import seconds and the
# slowdown.  A slowdown read in this process does not hold for another one.
_TIME_IMPORT = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
    + "; ".join(f"import mapfla.{name}" for name in PACKAGE)
    + "; took = time.perf_counter() - t0; from perfbench.speed import Speedometer; "
    "print(took, Speedometer().slowdown())"
)


def _import_package() -> None:
    """Import ``mapfla`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    import mapfla

    if not Path(mapfla.__file__).resolve().is_relative_to(src):
        raise ImportError(f"mapfla imported from {mapfla.__file__}, not {src}")


def _time_import() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import the measured modules, and
    the slowdown that interpreter saw."""
    done = subprocess.run(
        [sys.executable, "-c", _TIME_IMPORT, str(ROOT / "src"), str(ROOT)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    took, slowdown = done.stdout.split()
    return float(took), float(slowdown)


def _percentile(samples: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``samples``."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _timing(samples_s: list[float], prefix: str) -> tuple[dict, dict]:
    ms = [s * 1e3 for s in samples_s]
    p90 = _percentile(ms, 90)
    values = {f"{prefix}.p50": _percentile(ms, 50), f"{prefix}.p90": p90}
    counts = {"samples": len(ms), "beyond_p90": sum(1 for x in ms if x > p90)}
    return values, counts


def _outcomes(result) -> dict[str, float]:
    """Quality outcomes of a pass: success rates, plan length, oracle gap."""
    out: dict[str, float] = {}
    for mode, attempted in sorted(result.attempted.items()):
        out[f"success_rate.{mode}"] = result.solved.get(mode, 0) / attempted
    if result.plan_moves:
        out["plan_moves.mean"] = statistics.fmean(result.plan_moves)
    if result.oracle_s:
        for mode in sorted(result.attempted):
            missed = result.oracle_missed.get(mode, 0)
            out[f"oracle_gap.{mode}"] = (
                missed / result.oracle_solved if result.oracle_solved else 0.0
            )
    return out


# Every workload gives these; success_rate.naive, oracle_ms.* and
# oracle_gap.* are printed and recorded only where the workload has them.
END_TO_END = (
    "solve_ms.p50",
    "solve_ms.p90",
    "instances_per_s",
    "success_rate.la",
    "plan_moves.mean",
    "setup_s",
    "peak_rss_mb",
)
UNITS = {
    "solve_ms.p50": "ms",
    "solve_ms.p90": "ms",
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "oracle_ms.p50": "ms",
    "oracle_ms.p90": "ms",
    "success_rate.la": "ratio",
    "plan_moves.mean": "moves",
}


def _commit() -> str:
    """The checkout's git commit, or "unknown" outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # Never report the commit of a repository that encloses the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def _record_base(args, result) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "instances": result.cases,
        "solves": result.solves,
        "timeouts": result.timeouts,
        "digest": result.digest(),
    }


def _write(name: str, payload) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _emit(lines: list[str], attempted: int, failed: int, metrics: dict) -> None:
    for line in lines:
        print(line)
    print(
        json.dumps(
            {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )


def _fmt(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<44} {value:>14.6g} {unit:<7}{note}"


def _timings(solve_s, case_s, oracle_s, setup_s: float) -> dict[str, float]:
    values = {
        **_timing(solve_s, "solve_ms")[0],
        "instances_per_s": len(case_s) / sum(case_s),
        "setup_s": setup_s,
    }
    if oracle_s:
        values.update(_timing(oracle_s, "oracle_ms")[0])
    return values


def run_untraced(args, workload) -> None:
    from perfbench.speed import Speedometer
    from perfbench.workloads import run_pass

    count = workload.n_cases(args.seconds)
    speed = Speedometer()
    # A set-up is the package import in a fresh interpreter, then the
    # workload's generation and warm-up solve.
    setups, scaled_setups = [], []
    for _ in range(SETUP_REPEATS):
        import_s, import_slowdown = _time_import()
        slowdown = speed.slowdown()
        t0 = time.perf_counter()
        cases = workload.setup(args.seed, count)
        setup_s = time.perf_counter() - t0
        setups.append(import_s + setup_s)
        scaled_setups.append(import_s / import_slowdown + setup_s / slowdown)
    result = run_pass(cases, speed=speed)

    # Times at reference speed (reported) and as read off the clock (recorded).
    scaled = _timings(
        result.at_reference("solve"),
        result.at_reference("case"),
        result.at_reference("oracle"),
        statistics.median(scaled_setups),
    )
    raw = _timings(result.solve_s, result.case_s, result.oracle_s, statistics.median(setups))
    scaled["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes = _outcomes(result)
    values = {**scaled, **outcomes}
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in END_TO_END}
    counts = _timing(result.solve_s, "solve_ms")[1]
    record = _record_base(args, result)
    record.update(
        metrics=metrics,
        oracle_ms={k: v for k, v in scaled.items() if k.startswith("oracle_ms")},
        outcomes=outcomes,
        raw_clock=raw,
        slowdown=speed.samples,
        samples={"solve_ms": counts, "setup_s": SETUP_REPEATS, "instances": result.cases},
        solved=result.solved,
        attempted=result.attempted,
    )
    if result.oracle_s:
        record["samples"]["oracle_ms"] = _timing(result.oracle_s, "oracle_ms")[1]
    path = _write(f"{args.workload}-seed{args.seed}-trace0.json", record)

    n = counts["samples"]
    notes = {
        "solve_ms.p50": f"n={n}",
        "solve_ms.p90": f"n={n}, {counts['beyond_p90']} beyond",
        "instances_per_s": f"n={result.cases}",
        "setup_s": f"median of {SETUP_REPEATS}",
        "oracle_ms.p50": f"n={len(result.oracle_s)}",
        "oracle_ms.p90": f"n={len(result.oracle_s)}",
        "plan_moves.mean": f"n={len(result.plan_moves)}",
        **{f"success_rate.{mode}": f"n={n}" for mode, n in result.attempted.items()},
    }
    lines = [
        f"{args.workload} seed={args.seed}: {result.cases} instances, "
        f"{result.solves} solves, {result.timeouts} timeouts; machine slowdown "
        f"median {statistics.median(speed.samples):.2f} over {len(speed.samples)} probes",
        *(_fmt(k, v, UNITS[k], notes.get(k, "")) for k, v in scaled.items()),
        *(_fmt(k, v, UNITS.get(k, "ratio"), notes.get(k, "")) for k, v in outcomes.items()),
        "  as read off the clock, before scaling to reference speed:",
        *(_fmt(k, v, UNITS[k]) for k, v in raw.items()),
        f"  digest {record['digest']}",
        f"  record {path.relative_to(ROOT)}",
    ]
    _emit(lines, result.solves, result.timeouts, metrics)


def run_traced(args, workload) -> None:
    from perfbench.layers import PER_LAYER, PROBES, per_layer_values
    from perfbench.tracer import Patched, Tracer
    from perfbench.workloads import BenchFailure, run_pass

    tracer = Tracer()
    with Patched(tracer, PROBES) as patched:
        cases = workload.setup(args.seed, workload.n_cases(args.seconds))
    untraced = run_pass(cases)
    with Patched(tracer, PROBES):
        traced = run_pass(cases, tracer)
    if traced.digest() != untraced.digest():
        raise BenchFailure(
            f"traced digest {traced.digest()} differs from untraced {untraced.digest()}"
        )

    values = per_layer_values(tracer, untraced, traced)
    units = dict(PER_LAYER)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    record = _record_base(args, traced)
    record.update(metrics=metrics, absent_layers=patched.absent)
    path = _write(f"{args.workload}-seed{args.seed}-trace1.json", record)
    spans = _write(f"{args.workload}-seed{args.seed}-spans.json", tracer.records())

    lines = [
        f"{args.workload} seed={args.seed} traced: {traced.cases} instances, "
        f"{traced.solves} solves",
        *(_fmt(name, values[name], units[name]) for name, _ in PER_LAYER),
        f"  absent layers: {', '.join(patched.absent) or 'none'}",
        f"  digest {record['digest']} (traced = untraced)",
        f"  record {path.relative_to(ROOT)}, spans {spans.relative_to(ROOT)}",
    ]
    _emit(lines, traced.solves, traced.timeouts, metrics)


def run_all(args) -> int:
    """Run every workload untraced, then traced, each in a fresh process."""
    from perfbench.workloads import WORKLOADS

    summary: dict[str, dict] = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            try:
                code = subprocess.run(cmd, cwd=ROOT, timeout=900).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            if code != 0:
                print(f"{name} trace={trace}: exit status {code}", file=sys.stderr)
                status = 1
                continue
            record = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
            summary.setdefault(name, {})[f"trace{trace}"] = json.loads(
                record.read_text(encoding="utf-8")
            )
    print("outcome digests (untraced / traced):")
    for name, runs in summary.items():
        digests = [runs[t]["digest"] for t in ("trace0", "trace1") if t in runs]
        same = len(digests) == 2 and digests[0] == digests[1]
        print(f"  {name:<16} {' / '.join(d[:16] for d in digests)}  {'same' if same else 'DIFFER'}")
        if not same:
            status = 1
    _write(f"summary-seed{args.seed}.json", summary)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the mapfla benchmark.")
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        _import_package()
    except ImportError as exc:
        print(f"cannot import mapfla from this checkout: {exc}", file=sys.stderr)
        return 2

    from perfbench.workloads import WORKLOADS, BenchFailure

    if args.workload is None:
        return run_all(args)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    try:
        if args.trace:
            run_traced(args, workload)
        else:
            run_untraced(args, workload)
    except BenchFailure as exc:
        print(f"WRONG OUTPUT: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
