"""The roadmap generator as it was before its cell grid, frozen as the
reference that ``mapfla.harness.gen_roadmap`` must reproduce exactly.

It tests each sample against every placed vertex and ranks every vertex for
each vertex's k nearest, so it takes O(V^2) time.  Only tests use it.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Iterable

from mapfla.harness import RoadmapGenError
from mapfla.model import Roadmap, edge_key


def gen_roadmap_exhaustive(
    n_vertices: int,
    target_degree: float,
    min_separation: float,
    extent: tuple[float, float],
    seed: int,
) -> Roadmap:
    if n_vertices < 1:
        raise ValueError("n_vertices must be >= 1")
    width, height = extent
    rng = random.Random(seed)
    budget = 300 * n_vertices + 1000
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
