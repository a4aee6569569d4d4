"""The benchmark's workloads and the measured pipeline they run.

Every input comes from the workload seed; the program sees only the
generated ``Instance`` objects.  The load is a closed loop with one caller:
each instance goes through ``solve`` (every mode the workload names), then
``validate_plan`` for every solved plan, then, on toy-oracle, the exhaustive
``joint_bfs_solve``, before the next instance starts.

Package functions are called through their modules (``solver.solve``, not a
name imported here) so that the tracer's patches are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from mapfla import harness, model, oracle, solver, validator

from .speed import Speedometer

# Far above the slowest solve seen on any workload (about 4 s, a failed
# sparse-crowded run), so that no outcome depends on machine load.
TIME_LIMIT_S = 60.0

SWEEP_N = tuple(range(4, 41, 9))  # 4, 13, 22, 31, 40
CROWDED_N = tuple(range(56, 81, 4))
DENSE_N = (2, 4, 6, 8)
SCENARIOS = 25  # scenarios per shared roadmap, as in the paper's protocol
# sparse-crowded uses the first 5 scenarios only, so that a 25 s run covers
# its whole grid: its instances cost 0.1 s to 5 s each.
CROWDED_SCENARIOS = 5
TOY_VERTICES = 12
TOY_AGENTS = 3


class BenchFailure(RuntimeError):
    """An output of the program is wrong: the run must print no metrics."""


@dataclass(frozen=True)
class Case:
    """One instance of a workload: its digest key, how to build it (untimed),
    the solver modes to run on it, and whether the oracle checks it."""

    key: tuple
    build: Callable[[], model.Instance]
    modes: tuple[str, ...]
    oracle: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    # Approximate pipeline seconds per case on a 2-core reference machine;
    # a run of S seconds measures round(S / case_s) cases, at most as many
    # as the workload has.
    case_s: float
    setup: Callable[[int, int], list[Case]]

    def n_cases(self, seconds: float) -> int:
        return max(2, round(seconds / self.case_s))


@dataclass
class PassResult:
    """What one pass over a workload's cases produced and how long it took.

    Every wall time ``*_s`` has the machine's slowdown at that moment in the
    parallel list ``*_slowdown`` (see :mod:`perfbench.speed`).
    """

    outcomes: list[list] = field(default_factory=list)
    solve_s: list[float] = field(default_factory=list)
    solve_slowdown: list[float] = field(default_factory=list)
    oracle_s: list[float] = field(default_factory=list)
    oracle_slowdown: list[float] = field(default_factory=list)
    case_s: list[float] = field(default_factory=list)  # pipeline time per case
    case_slowdown: list[float] = field(default_factory=list)
    timeouts: int = 0
    solved: dict[str, int] = field(default_factory=dict)
    attempted: dict[str, int] = field(default_factory=dict)
    plan_moves: list[int] = field(default_factory=list)
    oracle_solved: int = 0
    oracle_missed: dict[str, int] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def cases(self) -> int:
        return len(self.case_s)

    @property
    def solves(self) -> int:
        return len(self.solve_s)

    def at_reference(self, kind: str) -> list[float]:
        """The ``kind`` ("solve", "oracle" or "case") times, each divided by
        the slowdown measured when it was taken."""
        times = getattr(self, f"{kind}_s")
        return [t / slow for t, slow in zip(times, getattr(self, f"{kind}_slowdown"))]

    def digest(self) -> str:
        """Hash of every instance's outcome, in case order."""
        h = hashlib.sha256()
        for row in self.outcomes:
            h.update(json.dumps(row, separators=(",", ":")).encode())
            h.update(b"\n")
        return h.hexdigest()


def plan_sha(plan: Sequence[model.Move] | None) -> str:
    if plan is None:
        return "-"
    text = ";".join(f"{m.agent},{m.src},{m.dst}" for m in plan)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _warm_up(instance: model.Instance) -> None:
    result = solver.solve(instance, solver.SolverConfig(time_limit=TIME_LIMIT_S))
    if result.status == solver.SOLVED:
        validator.validate_plan(instance, result.plan)


def _stratified(
    rng: random.Random, values: Sequence[int], scenarios: int, count: int
) -> list[tuple[int, int]]:
    """``count`` distinct ``(value, scenario)`` cells spread evenly over
    ``values``, scenarios below ``scenarios`` drawn from the seeded ``rng``."""
    count = min(count, len(values) * scenarios)
    per_value, extra = divmod(count, len(values))
    bonus = set(rng.sample(range(len(values)), extra))
    cells = []
    for i, v in enumerate(values):
        picked = rng.sample(range(scenarios), per_value + (i in bonus))
        cells.extend((v, s) for s in sorted(picked))
    return cells


def _shared_roadmap_cases(
    tag: str,
    seed: int,
    count: int,
    n_values: Sequence[int],
    modes: tuple[str, ...],
    scenarios: int = SCENARIOS,
) -> list[Case]:
    # The paper's protocol, as in acceptance criterion 6: one fixed roadmap
    # and its 25 seeded scenarios.  A run of the full length measures every
    # cell of the (n, scenario) grid; a shorter one measures the cells the
    # seed picks.  The rare, costly failed la runs and the longest plans sit
    # in a few cells, so which cells a run drew decided its figures: with
    # fresh scenarios per seed the ten-seed spread of instances_per_s on
    # sparse-sweep reached 0.29, and with 109 of its 125 cells that of
    # solve_ms.p90 reached 0.24.
    roadmap, radius = harness.gen_preset("sparse-like", 0)
    pairs = max(n_values)
    pool = [
        harness.gen_scenario(roadmap, pairs, seed=i, name="sparse-like")
        for i in range(scenarios)
    ]
    # Warm up on the shared roadmap with a scenario outside the pool.
    spare = harness.gen_scenario(roadmap, pairs, seed=SCENARIOS)
    _warm_up(harness.instance_from_scenario(roadmap, radius, spare, 10))
    rng = random.Random(f"{tag}:{seed}")
    return [
        Case(
            key=(tag, n, s),
            build=partial(harness.instance_from_scenario, roadmap, radius, pool[s], n),
            modes=modes,
        )
        for n, s in _stratified(rng, n_values, scenarios, count)
    ]


def setup_sparse_sweep(seed: int, count: int) -> list[Case]:
    return _shared_roadmap_cases(
        "sparse-sweep", seed, count, SWEEP_N, (solver.LA, solver.NAIVE)
    )


def setup_sparse_crowded(seed: int, count: int) -> list[Case]:
    return _shared_roadmap_cases(
        "sparse-crowded", seed, count, CROWDED_N, (solver.LA,), CROWDED_SCENARIOS
    )


def _dense_instance(roadmap_seed: int, n: int) -> model.Instance:
    roadmap, radius = harness.gen_preset("dense-like", roadmap_seed)
    scenario = harness.gen_scenario(roadmap, n, seed=roadmap_seed, name="dense-like")
    return harness.instance_from_scenario(roadmap, radius, scenario)


def setup_dense_fresh(seed: int, count: int) -> list[Case]:
    # Measured roadmaps use seeds seed*1000 + i (i < 999); the warm-up
    # roadmap, seed 999, is outside that set for every seed and the same for
    # all, so set-up time does not vary with the seed.  Each case builds its
    # roadmap anew, so a CLI user's per-run set-up is paid inside every solve.
    _warm_up(_dense_instance(999, 2))
    count = min(count, 999)
    return [
        Case(
            key=("dense-fresh", DENSE_N[i % len(DENSE_N)], i),
            build=partial(_dense_instance, seed * 1000 + i, DENSE_N[i % len(DENSE_N)]),
            modes=(solver.LA,),
        )
        for i in range(count)
    ]


def _toy_instance(toy_seed: int) -> model.Instance:
    rng = random.Random(toy_seed)
    side = math.sqrt(TOY_VERTICES * math.pi * 0.25 / 0.3)
    roadmap = harness.gen_roadmap(
        TOY_VERTICES, 3.4, 1.0, (side, side), seed=rng.randrange(2**31)
    )
    k = min(TOY_AGENTS, roadmap.n_vertices - 2)
    return model.Instance(
        roadmap=roadmap,
        radius=rng.uniform(0.3, 0.49),
        starts=tuple(rng.sample(range(roadmap.n_vertices), k)),
        goals=tuple(rng.sample(range(roadmap.n_vertices), k)),
    )


def setup_toy_oracle(seed: int, count: int) -> list[Case]:
    rng = random.Random(f"toy-oracle:{seed}")
    toy_seeds = [rng.randrange(2**31) for _ in range(count)]
    # One warm-up toy for every seed, outside the range measured toys are
    # drawn from: its oracle cost is part of set-up and must not vary.
    warm = _toy_instance(2**31)
    _warm_up(warm)
    oracle.joint_bfs_solve(warm)
    return [
        Case(
            key=("toy-oracle", i),
            build=partial(_toy_instance, s),
            modes=(solver.LA, solver.NAIVE),
            oracle=True,
        )
        for i, s in enumerate(toy_seeds)
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sparse-sweep", 0.19, setup_sparse_sweep),
        Workload("sparse-crowded", 0.7, setup_sparse_crowded),
        Workload("dense-fresh", 0.6, setup_dense_fresh),
        Workload("toy-oracle", 0.025, setup_toy_oracle),
    )
}


def run_pass(cases: Sequence[Case], tracer=None, speed: Speedometer | None = None) -> PassResult:
    """Run every case through the pipeline and check every output.

    Raises :class:`BenchFailure` on an invalid plan, or on a toy the solver
    solved that the oracle did not, or solved in fewer moves than the
    oracle's minimum.  Timeouts count as unsolved and are tallied.
    """
    out = PassResult()
    speed = speed or Speedometer()
    clock = time.perf_counter
    for case_no, case in enumerate(cases):
        instance = case.build()
        if tracer is not None:
            tracer.label = case_no
        before = speed.slowdown()
        solves, oracles = len(out.solve_s), len(out.oracle_s)
        started = clock()
        solved_moves: dict[str, int] = {}
        for mode in case.modes:
            config = solver.SolverConfig(mode=mode, time_limit=TIME_LIMIT_S)
            t0 = clock()
            result = solver.solve(instance, config)
            out.solve_s.append(clock() - t0)
            _add_stats(out.stats, result.stats)
            status = result.status
            if status == solver.SOLVED:
                report = validator.validate_plan(instance, result.plan)
                if not report.ok:
                    raise BenchFailure(
                        f"invalid plan on {case.key} mode={mode}: {report.reason}"
                    )
                solved_moves[mode] = len(result.plan)
                out.plan_moves.append(len(result.plan))
                out.solved[mode] = out.solved.get(mode, 0) + 1
            elif status == solver.TIMEOUT:
                out.timeouts += 1
            out.attempted[mode] = out.attempted.get(mode, 0) + 1
            out.outcomes.append(
                [list(case.key), mode, status, len(result.plan or ()), plan_sha(result.plan)]
            )
        if case.oracle:
            t0 = clock()
            found = oracle.joint_bfs_solve(instance)
            out.oracle_s.append(clock() - t0)
            _check_oracle(case, found, solved_moves)
            if found.status == oracle.SOLVED:
                out.oracle_solved += 1
                for mode in case.modes:
                    if mode not in solved_moves:
                        out.oracle_missed[mode] = out.oracle_missed.get(mode, 0) + 1
            out.outcomes.append(
                [list(case.key), "oracle", found.status, len(found.plan or ()), found.expanded]
            )
        out.case_s.append(clock() - started)
        # The host can change speed during a long case: use the mean of the
        # slowdowns read just before and just after it.
        slowdown = (before + speed.slowdown()) / 2
        out.case_slowdown.append(slowdown)
        out.solve_slowdown += [slowdown] * (len(out.solve_s) - solves)
        out.oracle_slowdown += [slowdown] * (len(out.oracle_s) - oracles)
    return out


def _add_stats(total: dict[str, float], stats: solver.SolveStats) -> None:
    for name in ("attempts", "move_la_calls", "case3_failures", "elapsed"):
        total[name] = total.get(name, 0) + getattr(stats, name)


def _check_oracle(case: Case, found: oracle.OracleResult, solved_moves: dict[str, int]) -> None:
    for mode, moves in solved_moves.items():
        if found.status != oracle.SOLVED:
            raise BenchFailure(
                f"{case.key}: solver mode={mode} solved, oracle says {found.status}"
            )
        if moves < len(found.plan):
            raise BenchFailure(
                f"{case.key}: solver mode={mode} used {moves} moves, "
                f"below the oracle minimum {len(found.plan)}"
            )
