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

import math
import os
import random
import time
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import Instance, Roadmap, edge_key
from .solver import FAILED, INFO, LA, NAIVE, SOLVED, TIMEOUT, SolverConfig, log, solve
from .validator import validate_plan


class RoadmapGenError(RuntimeError):
    """Vertex sampling could not satisfy the separation constraint."""


class BenchSoundnessError(RuntimeError):
    """A plan reported as solved failed independent validation."""


class Scenario(NamedTuple):
    """An ordered list of start/goal pairs on a named roadmap."""

    roadmap_name: str
    pairs: tuple[tuple[int, int], ...]


class RoadmapPreset(NamedTuple):
    n_vertices: int
    target_degree: float
    min_separation: float
    extent: tuple[float, float]
    radius: float


PRESETS: dict[str, RoadmapPreset] = {
    "sparse-like": RoadmapPreset(
        n_vertices=158,
        target_degree=4.42,
        min_separation=1.0,
        extent=(18.0, 18.0),
        radius=0.48,
    ),
    "dense-like": RoadmapPreset(
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
) -> Roadmap:
    """Sample a connected roadmap: rejection-sampled vertices at pairwise
    distance >= ``min_separation``, then shortest k-nearest candidate edges
    up to the requested mean degree.

    Edges may pass arbitrarily close to third vertices, which is what makes
    large-agent instances interesting.  Only the largest connected component
    is kept, relabelled densely.  Raises :class:`RoadmapGenError` after a
    bounded number of failed placement attempts, and ``ValueError`` naming
    the parameter when ``n_vertices`` < 1 or when ``target_degree``,
    ``min_separation`` or a side of ``extent`` is negative or not finite.

    Placed vertices are bucketed in a uniform grid of square cells, as in
    Bridson's fast Poisson-disk sampling (SIGGRAPH 2007).  A sample is
    tested only against the vertices in its 3x3 block of cells, and each
    vertex ranks only the vertices in a square block of cells around it,
    grown until its k-th nearest is nearer than any cell outside.  The grid
    has about one vertex per cell, so both steps take expected O(V) time
    where comparing every pair took O(V^2).

    The output is identical to the exhaustive scan's, bit for bit.  The cell
    side exceeds ``min_separation`` by a margin far above the rounding in a
    cell index, so a vertex two cells away along an axis is too far along
    that axis to fail the separation test: the accept/reject decisions, and
    with them the random stream, are unchanged.  Neighbours are ranked by
    the same ``(d^2, v)`` key with d^2 computed by the same expression, and
    every vertex outside the block has a larger key than the k-th inside.
    """
    if n_vertices < 1:
        raise ValueError("n_vertices must be >= 1")
    if not 0.0 <= target_degree < math.inf:
        raise ValueError(f"target_degree must be finite and >= 0, got {target_degree}")
    if not 0.0 <= min_separation < math.inf:
        raise ValueError(f"min_separation must be finite and >= 0, got {min_separation}")
    width, height = extent
    if not (0.0 <= width < math.inf and 0.0 <= height < math.inf):
        raise ValueError(f"extent must be two finite numbers >= 0, got {extent}")
    rng = random.Random(seed)
    budget = 300 * n_vertices + 1000
    sep_sq = min_separation * min_separation
    side = _cell_side(n_vertices, min_separation, width, height)
    # Cells in row-major order inside a frame of empty cells, so that a 3x3
    # block never needs clipping.  ``cells`` holds the vertices placed in a
    # cell and ``around`` those placed in its 3x3 block, as (x, y, index).
    nx = int(width / side) + 1
    ny = int(height / side) + 1
    stride = nx + 2
    cells: list[list[tuple[float, float, int]]] = [[] for _ in range(stride * (ny + 2))]
    around: list[list[tuple[float, float, int]]] = [[] for _ in range(stride * (ny + 2))]
    block3 = (-stride - 1, -stride, -stride + 1, -1, 0, 1, stride - 1, stride, stride + 1)
    placed: list[tuple[float, float, int]] = []
    attempts = 0
    while len(placed) < n_vertices:
        if attempts >= budget:
            raise RoadmapGenError(
                f"placed only {len(placed)}/{n_vertices} vertices after "
                f"{attempts} attempts; extent {extent} too tight for "
                f"min_separation {min_separation}"
            )
        attempts += 1
        x = rng.uniform(0.0, width)
        y = rng.uniform(0.0, height)
        c = (int(y / side) + 1) * stride + int(x / side) + 1
        if all((x - px) ** 2 + (y - py) ** 2 >= sep_sq for px, py, _ in around[c]):
            vertex = (x, y, len(placed))
            placed.append(vertex)
            cells[c].append(vertex)
            for d in block3:
                around[c + d].append(vertex)
    points = [(x, y) for x, y, _ in placed]

    n = len(points)
    k = max(3, math.ceil(target_degree) + 2)
    # Start from the block radius (at least 1) whose inscribed disc holds
    # about k vertices at the mean density, plus half a cell.
    r0 = math.ceil(math.sqrt(k * nx * ny / (math.pi * n)) + 0.5)
    margin = side * 2**-20
    candidates: set[tuple[int, int]] = set()
    for c, cell in enumerate(cells):
        if not cell:
            continue
        cy, cx = divmod(c, stride)
        # The block of this radius covers the whole grid.
        cover = max(cx - 1, nx - cx, cy - 1, ny - cy)
        for ux, uy, u in cell:
            r = r0
            while True:
                if r >= cover:
                    near = placed
                else:
                    x0, x1 = max(cx - r, 1), min(cx + r, nx) + 1
                    rows = range(max(cy - r, 1) * stride, (min(cy + r, ny) + 1) * stride, stride)
                    near = [p for row in rows for b in cells[row + x0 : row + x1] for p in b]
                ranked = sorted([((ux - vx) ** 2 + (uy - vy) ** 2, v) for vx, vy, v in near])
                ranked.remove((0.0, u))
                # A vertex outside the block of radius r is farther than
                # r * side - margin along one axis.
                if r >= cover or (
                    len(ranked) >= k and ranked[k - 1][0] < (r * side - margin) ** 2
                ):
                    break
                r += 1
            for _, v in ranked[:k]:
                candidates.add(edge_key(u, v))

    def length(e: tuple[int, int]) -> float:
        (x1, y1), (x2, y2) = points[e[0]], points[e[1]]
        return math.hypot(x1 - x2, y1 - y2)

    target_edges = max(0, round(n * target_degree / 2))
    edges = sorted(candidates, key=lambda e: (length(e), e))[:target_edges]

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


def _cell_side(n_vertices: int, min_separation: float, width: float, height: float) -> float:
    """Side of ``gen_roadmap``'s grid cells.

    It is never below the mean spacing nor an n-th of the longer extent, so
    the grid has O(n) cells.  A cell index int(x / side) is then off by under
    n * 2**-52 of a side, far below the side's margin of 2**-20 over
    ``min_separation`` for any n under 2**30.
    """
    mean_spacing = math.sqrt(width * height / n_vertices)
    base = max(min_separation, mean_spacing, max(width, height) / n_vertices)
    return base * (1 + 2**-20) or 1.0


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
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
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
    return Scenario(roadmap_name=name, pairs=tuple(zip(starts, goals)))


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


class BenchRow(NamedTuple):
    roadmap: str
    mode: str
    n: int
    solved: int
    failed: int
    timeout: int
    success_rate: float
    mean_ms: float


class BenchReport(NamedTuple):
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


# A worker process's roadmaps by name, set once by the pool's initializer:
# every task the worker runs on a roadmap shares its interference table.
_worker_roadmaps: Mapping[str, tuple[Roadmap, float]] = {}


def _set_worker_roadmaps(roadmaps: Mapping[str, tuple[Roadmap, float]]) -> None:
    global _worker_roadmaps
    _worker_roadmaps = roadmaps


def _run_one(task, roadmaps: Mapping | None = None) -> tuple[str, float]:
    """Solve and check one task on its roadmap, looked up by name in
    ``roadmaps``, or in the worker's roadmaps when run in a pool.  Raises
    :class:`BenchSoundnessError` when a solved plan fails validation."""
    name, si, scenario, n, mode, time_limit = task
    roadmap, radius = (_worker_roadmaps if roadmaps is None else roadmaps)[name]
    instance = instance_from_scenario(roadmap, radius, scenario, n)
    config = SolverConfig(mode=mode, time_limit=time_limit)
    started = time.perf_counter()
    result = solve(instance, config)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    if result.status == SOLVED and not validate_plan(instance, result.plan).ok:
        raise BenchSoundnessError(
            f"solver bug: plan for roadmap={name} mode={mode} n={n} "
            f"scenario={si} failed independent validation"
        )
    return result.status, elapsed_ms


def run_bench(
    roadmaps: Mapping[str, tuple[Roadmap, float]],
    scenarios: Mapping[str, Sequence[Scenario]],
    modes: Sequence[str],
    n_values: Sequence[int],
    time_limit: float,
    *,
    jobs: int = 1,
) -> BenchReport:
    """Run the full (roadmap x mode x n x scenario) grid and aggregate.

    Up to ``jobs`` worker processes run the grid, but never more than there
    are tasks or CPUs; with one, it runs in this process.  Each worker gets
    every roadmap once, when it starts, and a task names its roadmap, so the
    solves a process runs on one roadmap share its interference table.
    With ``jobs`` above 1, the band and hop-table counts of each ``solve:``
    log line therefore depend on which worker ran which earlier task; the
    rows' solved, failed and timeout counts do not.  Every solved plan is
    re-validated before it counts; an invalid one raises
    :class:`BenchSoundnessError` and aborts the benchmark.  Raises
    ``ValueError`` before any solve when ``jobs`` < 1, a mode is unknown or
    repeats, a roadmap has no scenarios, or some ``n`` is outside 1..pairs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if len(set(modes)) != len(modes):
        raise ValueError(f"modes {list(modes)} repeat a mode")
    for mode in modes:
        if mode not in (LA, NAIVE):
            raise ValueError(f"unknown mode {mode!r}")
    for name in sorted(roadmaps):
        if not scenarios[name]:
            raise ValueError(f"roadmap {name!r} has no scenarios")
        fewest = min(len(scenario.pairs) for scenario in scenarios[name])
        if any(not 1 <= n <= fewest for n in n_values):
            raise ValueError(f"agent counts {list(n_values)} must lie in 1..{fewest}")
    cells = [(name, mode, n) for name in sorted(roadmaps) for mode in modes for n in n_values]
    tasks = [
        (name, si, scenario, n, mode, time_limit)
        for name, mode, n in cells
        for si, scenario in enumerate(scenarios[name])
    ]

    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: it loads multiprocessing, which a serial run never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_set_worker_roadmaps,
            initargs=(dict(roadmaps),),
        ) as pool:
            results = list(pool.map(_run_one, tasks, chunksize=1))
    else:
        results = [_run_one(task, roadmaps) for task in tasks]

    outcomes = iter(results)  # in task order
    rows = []
    for name, mode, n in cells:
        cell = [next(outcomes) for _ in scenarios[name]]
        counts = Counter(s for s, _ in cell)
        total = len(cell)
        rows.append(
            BenchRow(
                roadmap=name,
                mode=mode,
                n=n,
                solved=counts[SOLVED],
                failed=counts[FAILED],
                timeout=counts[TIMEOUT],
                success_rate=counts[SOLVED] / total,
                mean_ms=sum(ms for _, ms in cell) / total,
            )
        )
        log(__name__, INFO, "bench %s %s n=%d: %d/%d solved",
            name, mode, n, rows[-1].solved, total)
    return BenchReport(rows=tuple(rows))
