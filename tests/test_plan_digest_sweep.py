"""Plan digests over a wide seeded instance set: a refactor or speed-up of the
solver must leave every status and every plan byte-identical.

Each family of instances has one pinned SHA-256 over the lines
``"<key> <status> <plan digest>"`` of its solves, in a fixed order, where the
plan digest is the SHA-256 of ``fileio.dumps_plan`` (``-`` when no plan is
returned).  The families cover both modes, both presets, crowded and sparse
agent counts, toys of several sizes, a 2,000-vertex roadmap and restarts:

* criterion 6: sparse-like seed 0, its 25 scenarios, n = 2..40, both modes;
* sparse-crowded: the same roadmap, scenarios 0-4 of 80 pairs, n = 56..80
  in steps of 4, la;
* dense-like: roadmap and scenario seeds 0-39 at n = 2, 4, 6 and 8, la;
* toys (12 vertices, 3 agents, seeds 0-599) and crowded toys (12 vertices
  and 5 agents, 16 and 7, 16 and 9; seeds 0-299), both modes;
* ``gen_roadmap(2000, 4.42, 1.0, (64, 64), 0)`` at r = 0.48, scenarios 0-2
  of 200 pairs, n = 40 and 200, la;
* ``random-restarts:8:1`` on the criterion-6 scenarios 1, 13, 16 and 22,
  where index order fails, at n = 30 and 40, la.

The time limit is far above any of these solves, so no digest depends on
load.  Mismatching families are reported with their digests.  To find the
solve that differs, print a family's lines at both commits and ``diff`` them:

    PYTHONPATH=src python tests/test_plan_digest_sweep.py toys-12-5 > a.txt

The SHA-256 of that output is the family's digest.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from helpers import plan_digest, toy_instance
from mapfla.harness import gen_preset, gen_roadmap, gen_scenario, instance_from_scenario
from mapfla.solver import SolverConfig, solve

TIME_LIMIT_S = 120.0


def _sparse(pairs, scenarios, n_values, modes, order="index"):
    roadmap, radius = gen_preset("sparse-like", 0)
    for s in scenarios:
        scen = gen_scenario(roadmap, pairs, seed=s, name="sparse-like")
        for n in n_values:
            inst = instance_from_scenario(roadmap, radius, scen, n)
            for mode in modes:
                yield f"{mode} {n} {s}", inst, SolverConfig(mode, order, TIME_LIMIT_S)


def _dense():
    for seed in range(40):
        roadmap, radius = gen_preset("dense-like", seed)
        for n in (2, 4, 6, 8):
            scen = gen_scenario(roadmap, n, seed=seed, name="dense-like")
            inst = instance_from_scenario(roadmap, radius, scen)
            yield f"la {n} {seed}", inst, SolverConfig("la", time_limit=TIME_LIMIT_S)


def _toys(count, n_vertices, n_agents):
    for s in range(count):
        inst = toy_instance(s, n_vertices, n_agents)
        for mode in ("la", "naive"):
            yield f"{mode} {s}", inst, SolverConfig(mode, time_limit=TIME_LIMIT_S)


def _large():
    roadmap = gen_roadmap(2000, 4.42, 1.0, (64, 64), 0)
    for s in range(3):
        scen = gen_scenario(roadmap, 200, seed=s)
        for n in (40, 200):
            inst = instance_from_scenario(roadmap, 0.48, scen, n)
            yield f"la {n} {s}", inst, SolverConfig("la", time_limit=TIME_LIMIT_S)


FAMILIES = {
    "criterion-6": lambda: _sparse(40, range(25), range(2, 41), ("la", "naive")),
    "sparse-crowded": lambda: _sparse(80, range(5), range(56, 81, 4), ("la",)),
    "dense-like": _dense,
    "toys-12-3": lambda: _toys(600, 12, 3),
    "toys-12-5": lambda: _toys(300, 12, 5),
    "toys-16-7": lambda: _toys(300, 16, 7),
    "toys-16-9": lambda: _toys(300, 16, 9),
    "roadmap-2000": _large,
    "restarts": lambda: _sparse(
        40, (1, 13, 16, 22), (30, 40), ("la",), order="random-restarts:8:1"
    ),
}

# SHA-256 of each family's solve lines, pinned before the interference table
# became one dict and a push stopped returning its masked view.
PINNED = {
    "criterion-6": "293782d99cde8abbc7145eb1f5a9d2eecf6c5bc9a5bf368a99b11d1509fb37de",
    "sparse-crowded": "5a944217c2a0fc8bcb8006572443f5ce2b745c1f2f1038f29952f530552ae1bc",
    "dense-like": "8616882ff16fa7fad0c32299ac9d7ca0caac741fc470d013809e4866d1a070c5",
    "toys-12-3": "1f4a664f464239d3f626d6abde291c035e90bc6dc97936b041f7ecb5efcd721e",
    "toys-12-5": "f539a309be16d7614fdcdb6522e00c0e3544a19fede1205e7c73454add76f8ea",
    "toys-16-7": "1ed234b102a9ffda47aafd621fd0a32a7d295eed8052993965f54d540689d311",
    "toys-16-9": "9fa553524ea7883ce47650ae4fc26e9741e0c332c39af0d1c299675a80f2e67d",
    "roadmap-2000": "2d64d37ef0d84cfc7c2f5749cc5ce8e190bf49fc5425e47b96d0a68020492a2f",
    "restarts": "038aa1c63ccef3f377cbfe31f9c33737b087c856924e526fff782bdd91e7929b",
}


def family_lines(name: str):
    """The ``"<key> <status> <plan digest>"`` line of each solve of ``name``."""
    for key, inst, config in FAMILIES[name]():
        result = solve(inst, config)
        yield f"{key} {result.status} {plan_digest(result.plan)}\n"


def family_digest(name: str) -> str:
    h = hashlib.sha256()
    for line in family_lines(name):
        h.update(line.encode())
    return h.hexdigest()


def test_every_family_keeps_its_plans():
    names = sorted(FAMILIES)
    with ProcessPoolExecutor(
        max_workers=min(2, os.cpu_count() or 1),
        mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        got = dict(zip(names, pool.map(family_digest, names)))
    assert got == PINNED


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 2 or sys.argv[1] not in FAMILIES:
        sys.exit(f"usage: {sys.argv[0]} FAMILY, one of: {', '.join(FAMILIES)}")
    sys.stdout.writelines(family_lines(sys.argv[1]))
