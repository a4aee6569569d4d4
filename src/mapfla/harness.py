"""Instance generation and success-rate benchmarking.

Roadmaps are synthesized (Poisson-disk vertex sampling plus k-nearest edges)
rather than imported, with two seeded presets whose size and density echo the
sparse/dense arenas commonly used for large-agent benchmarks.  A benchmark
cell (roadmap, mode, n) runs every scenario truncated to its first ``n``
start/goal pairs under a wall-clock limit; a plan only counts as solved after
the independent validator re-checked it, and a validator rejection aborts the
whole benchmark: correctness over throughput.
"""

from __future__ import annotations

import logging
import math
import random
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .geometry import segdist
from .model import Instance, Roadmap, edge_key
from .solver import FAILED, SOLVED, TIMEOUT, SolverConfig, solve
from .validator import validate_plan

log = logging.getLogger("mapfla.harness")


class RoadmapGenError(RuntimeError):
    """Vertex sampling could not satisfy the separation constraint."""


class BenchSoundnessError(RuntimeError):
    """A plan reported as solved failed independent validation."""


@dataclass(frozen=True)
class Scenario:
    """An ordered list of start/goal pairs on a named roadmap."""

    roadmap_name: str
    pairs: tuple[tuple[int, int], ...]
    seed: int | None = None


@dataclass(frozen=True)
class RoadmapPreset:
    name: str
    n_vertices: int
    target_degree: float
    min_separation: float
    extent: tuple[float, float]
    radius: float


PRESETS: dict[str, RoadmapPreset] = {
    "sparse-like": RoadmapPreset(
        name="sparse-like",
        n_vertices=158,
        target_degree=4.42,
        min_separation=1.0,
        extent=(18.0, 18.0),
        radius=0.48,
    ),
    "dense-like": RoadmapPreset(
        name="dense-like",
        n_vertices=300,
        target_degree=8.0,
        min_separation=1.0,
        extent=(24.0, 24.0),
        radius=0.48,
    ),
}


def gen_roadmap(
    n_vertices: int,
    target_degree: float,
    min_separation: float,
    extent: tuple[float, float],
    seed: int,
    *,
    allow_interference: bool = True,
    max_attempts: int | None = None,
) -> Roadmap:
    """Sample a connected roadmap: rejection-sampled vertices at pairwise
    distance >= ``min_separation``, then shortest k-nearest candidate edges
    up to the requested mean degree.

    With ``allow_interference`` (the default) edges may pass arbitrarily
    close to third vertices, which is what makes large-agent instances
    interesting; otherwise any candidate passing within ``min_separation``
    of a third vertex is dropped.  Only the largest connected component is
    kept, relabelled densely.  Raises :class:`RoadmapGenError` after a
    bounded number of failed placement attempts.
    """
    if n_vertices < 1:
        raise ValueError("n_vertices must be >= 1")
    width, height = extent
    rng = random.Random(seed)
    budget = max_attempts if max_attempts is not None else 300 * n_vertices + 1000
    points: list[tuple[float, float]] = []
    sep_sq = min_separation * min_separation
    attempts = 0
    while len(points) < n_vertices:
        if attempts >= budget:
            raise RoadmapGenError(
                f"placed only {len(points)}/{n_vertices} vertices after "
                f"{attempts} attempts; extent {extent} too tight for "
                f"min_separation {min_separation}"
            )
        attempts += 1
        x = rng.uniform(0.0, width)
        y = rng.uniform(0.0, height)
        if all((x - px) ** 2 + (y - py) ** 2 >= sep_sq for px, py in points):
            points.append((x, y))

    n = len(points)
    k = max(3, math.ceil(target_degree) + 2)
    candidates: set[tuple[int, int]] = set()
    for u in range(n):
        ranked = sorted(
            (((points[u][0] - points[v][0]) ** 2 + (points[u][1] - points[v][1]) ** 2), v)
            for v in range(n)
            if v != u
        )
        for _, v in ranked[:k]:
            candidates.add(edge_key(u, v))

    def length(e: tuple[int, int]) -> float:
        (x1, y1), (x2, y2) = points[e[0]], points[e[1]]
        return math.hypot(x1 - x2, y1 - y2)

    target_edges = max(0, round(n * target_degree / 2))
    edges: list[tuple[int, int]] = []
    for e in sorted(candidates, key=lambda e: (length(e), e)):
        if len(edges) >= target_edges:
            break
        if not allow_interference and _edge_too_close(points, e, min_separation):
            continue
        edges.append(e)

    keep = _largest_component(n, edges)
    remap = {old: new for new, old in enumerate(sorted(keep))}
    new_points = tuple(points[old] for old in sorted(keep))
    new_edges = tuple(
        sorted(
            edge_key(remap[u], remap[v])
            for u, v in edges
            if u in keep and v in keep
        )
    )
    return Roadmap(points=new_points, edge_list=new_edges)


def _edge_too_close(points, e: tuple[int, int], clearance: float) -> bool:
    u, v = e
    a, b = points[u], points[v]
    for w, p in enumerate(points):
        if w != u and w != v and segdist(p, a, b) < clearance:
            return True
    return False


def _largest_component(n: int, edges: Iterable[tuple[int, int]]) -> set[int]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    best: set[int] = set()
    for s in range(n):
        if s in seen:
            continue
        comp = {s}
        queue = deque([s])
        seen.add(s)
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        if len(comp) > len(best):
            best = comp
    return best


def gen_preset(name: str, seed: int) -> tuple[Roadmap, float]:
    """Instantiate a named preset; returns the roadmap and the agent radius."""
    preset = PRESETS[name]
    roadmap = gen_roadmap(
        preset.n_vertices,
        preset.target_degree,
        preset.min_separation,
        preset.extent,
        seed,
    )
    return roadmap, preset.radius


def gen_scenario(roadmap: Roadmap, n_pairs: int, seed: int, name: str = "roadmap") -> Scenario:
    """Sample ``n_pairs`` distinct start vertices and, independently,
    distinct goal vertices."""
    if n_pairs > roadmap.n_vertices:
        raise ValueError(
            f"cannot place {n_pairs} agents on {roadmap.n_vertices} vertices"
        )
    rng = random.Random(seed)
    starts = rng.sample(range(roadmap.n_vertices), n_pairs)
    goals = rng.sample(range(roadmap.n_vertices), n_pairs)
    return Scenario(
        roadmap_name=name, pairs=tuple(zip(starts, goals)), seed=seed
    )


def instance_from_scenario(
    roadmap: Roadmap, radius: float, scenario: Scenario, n: int | None = None
) -> Instance:
    """Instance over the first ``n`` pairs of the scenario (all by default)."""
    if n is not None and not 1 <= n <= len(scenario.pairs):
        raise ValueError(f"agent count must be in 1..{len(scenario.pairs)}, got {n}")
    pairs = scenario.pairs if n is None else scenario.pairs[:n]
    return Instance(
        roadmap=roadmap,
        radius=radius,
        starts=tuple(s for s, _ in pairs),
        goals=tuple(g for _, g in pairs),
    )


# -- benchmarking -------------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    roadmap: str
    mode: str
    n: int
    solved: int
    failed: int
    timeout: int
    success_rate: float
    mean_ms: float


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]

    CSV_HEADER = "roadmap,mode,n,solved,failed,timeout,success_rate,mean_ms"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.roadmap},{r.mode},{r.n},{r.solved},{r.failed},{r.timeout},"
                f"{r.success_rate:.4f},{r.mean_ms:.3f}"
            )
        return "\n".join(lines) + "\n"

    def cell(self, roadmap: str, mode: str, n: int) -> BenchRow:
        for r in self.rows:
            if (r.roadmap, r.mode, r.n) == (roadmap, mode, n):
                return r
        raise KeyError((roadmap, mode, n))


def _run_one(args) -> tuple[str, float]:
    roadmap, radius, scenario, n, mode, time_limit, order = args
    instance = instance_from_scenario(roadmap, radius, scenario, n)
    config = SolverConfig(mode=mode, order=order, time_limit=time_limit)
    started = time.perf_counter()
    result = solve(instance, config)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    if result.status == SOLVED:
        report = validate_plan(instance, result.plan)
        if not report.ok:
            return "invalid", elapsed_ms
    return result.status, elapsed_ms


def run_bench(
    roadmaps: Mapping[str, tuple[Roadmap, float]],
    scenarios: Mapping[str, Sequence[Scenario]],
    modes: Sequence[str],
    n_values: Sequence[int],
    time_limit: float,
    *,
    jobs: int = 1,
    order: str | tuple[int, ...] = "index",
) -> BenchReport:
    """Run the full (roadmap x mode x n x scenario) grid and aggregate.

    Every solved plan is re-validated before it counts; an invalid one raises
    :class:`BenchSoundnessError` and aborts the benchmark.
    """
    tasks = []
    task_keys = []
    for name in sorted(roadmaps):
        roadmap, radius = roadmaps[name]
        for mode in modes:
            for n in n_values:
                for si, scenario in enumerate(scenarios[name]):
                    tasks.append(
                        (roadmap, radius, scenario, n, mode, time_limit, order)
                    )
                    task_keys.append((name, mode, n, si))

    outcomes: dict[tuple[str, str, int, int], tuple[str, float]] = {}
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for key, outcome in zip(task_keys, pool.map(_run_one, tasks, chunksize=1)):
                outcomes[key] = outcome
    else:
        for key, task in zip(task_keys, tasks):
            outcomes[key] = _run_one(task)

    for key, (status, _) in outcomes.items():
        if status == "invalid":
            name, mode, n, si = key
            raise BenchSoundnessError(
                f"solver bug: plan for roadmap={name} mode={mode} n={n} "
                f"scenario={si} failed independent validation"
            )

    rows = []
    for name in sorted(roadmaps):
        for mode in modes:
            for n in n_values:
                cell = [
                    outcomes[(name, mode, n, si)]
                    for si in range(len(scenarios[name]))
                ]
                solved = sum(1 for s, _ in cell if s == SOLVED)
                failed = sum(1 for s, _ in cell if s == FAILED)
                timed_out = sum(1 for s, _ in cell if s == TIMEOUT)
                total = len(cell)
                rows.append(
                    BenchRow(
                        roadmap=name,
                        mode=mode,
                        n=n,
                        solved=solved,
                        failed=failed,
                        timeout=timed_out,
                        success_rate=solved / total if total else 0.0,
                        mean_ms=sum(ms for _, ms in cell) / total if total else 0.0,
                    )
                )
                log.info(
                    "bench %s %s n=%d: %d/%d solved",
                    name, mode, n, rows[-1].solved, total,
                )
    return BenchReport(rows=tuple(rows))
