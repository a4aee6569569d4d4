"""Command-line interface: solve, validate, gen, bench, render.

Exit codes are a stable contract: 0 success/valid, 2 failed/invalid,
3 timeout, 1 usage or IO error.  ``MAPFLA_LOG`` controls diagnostics on
stderr: ``off`` (the default, also when unset or empty), ``info`` for one line
per solve, or ``trace`` for the solver's debug lines as well, matched without
regard to case; any other value is a usage error, exit 1, before the command
runs.  Unless it is ``info`` or ``trace``, a call does not import ``logging``.
A call leaves the "mapfla" logger's handlers and level as it found them.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import fileio, harness
from .harness import PRESETS, gen_preset, gen_scenario
from .model import Instance, Plan, Roadmap
from .solver import (
    SOLVED,
    TIMEOUT,
    SolverConfig,
    check_instance,
    solve,
)
from .validator import validate_plan

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILED = 2
EXIT_TIMEOUT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise _UsageError(message)


# MAPFLA_LOG value -> level of the "mapfla" logger: off is above CRITICAL.
_LOG_LEVELS = {"off": 60, "info": 20, "trace": 10}


def _setup_logging():
    """Point the "mapfla" logger at stderr with the ``MAPFLA_LOG`` level, and
    return it with the handlers and level it had, or None when ``logging``
    stays unloaded."""
    value = os.environ.get("MAPFLA_LOG") or "off"
    level = _LOG_LEVELS.get(value.lower())
    if level is None:
        raise _UsageError(f"MAPFLA_LOG must be off, info or trace, got {value!r}")
    if level == _LOG_LEVELS["off"] and "logging" not in sys.modules:
        return None  # nothing can emit a record before some code imports logging
    import logging

    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    logger = logging.getLogger("mapfla")
    saved = logger, logger.handlers[:], logger.level
    logger.handlers[:] = [handler]
    logger.setLevel(level)
    return saved


def _parse_n_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        if int(hi) < int(lo):
            raise _UsageError(f"--n range {spec} is empty")
        return list(range(int(lo), int(hi) + 1))
    return [int(spec)]


def _preset_scenarios(args, name: str) -> tuple[Roadmap, float, list[harness.Scenario]]:
    """The ``--preset`` roadmap of ``--seed``, its radius, and ``--scenarios``
    scenarios of ``--pairs`` pairs each, named ``name``."""
    if args.scenarios < 0:
        raise _UsageError(f"--scenarios must be >= 0, got {args.scenarios}")
    roadmap, radius = gen_preset(args.preset, args.seed)
    if not 1 <= args.pairs <= roadmap.n_vertices:
        raise _UsageError(f"--pairs must be in 1..{roadmap.n_vertices}, got {args.pairs}")
    scenarios = [
        gen_scenario(roadmap, args.pairs, seed=args.seed * 10_000 + i, name=name)
        for i in range(args.scenarios)
    ]
    return roadmap, radius, scenarios


def _load_instance(map_path: str, scen_path: str, agents: int | None) -> Instance:
    roadmap, radius = fileio.load_roadmap(map_path)
    name, pairs = fileio.load_scenario(scen_path)
    scenario = harness.Scenario(name, pairs)
    return harness.instance_from_scenario(roadmap, radius, scenario, agents)


def cmd_solve(args) -> int:
    instance = _load_instance(args.map, args.scen, args.agents)
    config = SolverConfig(mode=args.mode, order=args.order, time_limit=args.time_limit)
    result = solve(instance, config)
    moves = result.stats.moves
    print(f"status={result.status} moves={moves} ms={result.stats.elapsed * 1e3:.1f}")
    if result.status == SOLVED:
        if args.out:
            fileio.save_plan(args.out, result.plan)
        return EXIT_OK
    return EXIT_TIMEOUT if result.status == TIMEOUT else EXIT_FAILED


def _load_checked_plan(args) -> tuple[Instance, Plan]:
    """The instance of ``--map``/``--scen``/``--agents``, checked, and ``--plan``."""
    instance = _load_instance(args.map, args.scen, args.agents)
    check_instance(instance)
    return instance, fileio.load_plan(args.plan)


def cmd_validate(args) -> int:
    report = validate_plan(*_load_checked_plan(args))
    if report.ok:
        print("valid")
        return EXIT_OK
    print(f"invalid: {report.reason}")
    return EXIT_FAILED


def cmd_gen(args) -> int:
    stem = f"{args.preset}-{args.seed}"
    roadmap, radius, scenarios = _preset_scenarios(args, f"{stem}.map")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    map_path = out_dir / f"{stem}.map"
    fileio.save_roadmap(map_path, roadmap, radius)
    written = [map_path]
    for i, scenario in enumerate(scenarios):
        scen_path = out_dir / f"{stem}-scen{i:02d}.scen"
        fileio.save_scenario(scen_path, scenario.roadmap_name, scenario.pairs)
        written.append(scen_path)
    for p in written:
        print(p)
    return EXIT_OK


def cmd_bench(args) -> int:
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise _UsageError("--modes names no mode")
    n_values = _parse_n_range(args.n)
    roadmap, radius, scenarios = _preset_scenarios(args, args.preset)
    if min(n_values) < 1 or max(n_values) > args.pairs:
        raise _UsageError(f"--n {args.n} must lie in 1..{args.pairs}, the --pairs count")
    report = harness.run_bench(
        {args.preset: (roadmap, radius)},
        {args.preset: scenarios},
        modes,
        n_values,
        args.time_limit,
        jobs=args.jobs,
    )
    csv_text = report.to_csv()
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        print(args.out)
    else:
        print(csv_text, end="")
    return EXIT_OK


def cmd_render(args) -> int:
    from . import render  # only this command draws: solve and validate skip it

    frames = render.render_plan(*_load_checked_plan(args), args.out)
    print(f"wrote {len(frames)} frames to {args.out}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="mapfla", description="MAPF solver for large disk agents")
    sub = parser.add_subparsers(dest="command", required=True)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--map", required=True)
    instance.add_argument("--scen", required=True)
    instance.add_argument("--agents", type=int, default=None)
    preset = argparse.ArgumentParser(add_help=False)
    preset.add_argument("--preset", choices=sorted(PRESETS), default="sparse-like")
    preset.add_argument("--seed", type=int, default=0)
    preset.add_argument("--scenarios", type=int, default=25)
    preset.add_argument("--pairs", type=int, default=40)

    p = sub.add_parser("solve", parents=[instance], help="solve a scenario and write the plan")
    p.add_argument("--out", default=None)
    p.add_argument("--mode", choices=["la", "naive"], default="la")
    p.add_argument("--order", default="index",
                   help="index | perm:<ids> | random-restarts:<k>:<seed> "
                        "(at most k orderings, and no more than n! for n agents)")
    p.add_argument("--time-limit", type=float, default=30.0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", parents=[instance], help="check a plan against a scenario")
    p.add_argument("--plan", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", parents=[preset], help="write preset roadmap and scenario files")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", parents=[preset], help="run the success-rate benchmark, emit CSV")
    p.add_argument("--modes", default="la,naive")
    p.add_argument("--n", default="2..40", help="agent counts, e.g. 2..40 or 8")
    p.add_argument("--time-limit", type=float, default=30.0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, capped at the CPU count and the task count")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", parents=[instance], help="render a plan as SVG frames")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    saved = None
    try:
        saved = _setup_logging()
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, fileio.FileFormatError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if saved is not None:  # this call's diagnostics end with it
            logger, handlers, level = saved
            logger.handlers[:] = handlers
            logger.setLevel(level)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
