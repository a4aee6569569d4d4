"""Command-line interface: solve, validate, gen, bench, render.

Exit codes are a stable contract: 0 success/valid, 2 failed/invalid,
3 timeout, 1 usage or IO error.  ``MAPFLA_LOG={off,info,trace}`` controls
diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import fileio, harness, render
from .harness import PRESETS, gen_preset, gen_scenario
from .model import Instance
from .solver import (
    SOLVED,
    TIMEOUT,
    InvalidInstanceError,
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


def _setup_logging() -> None:
    level_name = os.environ.get("MAPFLA_LOG", "off").lower()
    levels = {"off": logging.CRITICAL + 10, "info": logging.INFO, "trace": logging.DEBUG}
    level = levels.get(level_name, logging.CRITICAL + 10)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    root = logging.getLogger("mapfla")
    root.handlers[:] = [handler]
    root.setLevel(level)


def _parse_n_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(spec)]


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


def cmd_validate(args) -> int:
    instance = _load_instance(args.map, args.scen, args.agents)
    check_instance(instance)
    plan = fileio.load_plan(args.plan)
    report = validate_plan(instance, plan)
    if report.ok:
        print("valid")
        return EXIT_OK
    print(f"invalid at move {report.failed_index}: {report.reason}")
    return EXIT_FAILED


def cmd_gen(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    roadmap, radius = gen_preset(args.preset, args.seed)
    stem = f"{args.preset}-{args.seed}"
    map_path = out_dir / f"{stem}.map"
    fileio.save_roadmap(map_path, roadmap, radius)
    written = [map_path]
    for i in range(args.scenarios):
        scenario = gen_scenario(
            roadmap, args.pairs, seed=args.seed * 10_000 + i, name=map_path.name
        )
        scen_path = out_dir / f"{stem}-scen{i:02d}.scen"
        fileio.save_scenario(scen_path, scenario.roadmap_name, scenario.pairs)
        written.append(scen_path)
    for p in written:
        print(p)
    return EXIT_OK


def cmd_bench(args) -> int:
    roadmap, radius = gen_preset(args.preset, args.seed)
    scenarios = [
        gen_scenario(roadmap, args.pairs, seed=args.seed * 10_000 + i, name=args.preset)
        for i in range(args.scenarios)
    ]
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    n_values = _parse_n_range(args.n)
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
    instance = _load_instance(args.map, args.scen, args.agents)
    check_instance(instance)
    plan = fileio.load_plan(args.plan)
    frames = render.render_plan(instance, plan, args.out)
    print(f"wrote {len(frames)} frames to {args.out}")
    return EXIT_OK


def _add_solver_flags(p) -> None:
    p.add_argument("--mode", choices=["la", "naive"], default="la")
    p.add_argument("--order", default="index",
                   help="index | perm:<ids> | random-restarts:<k>:<seed>")
    p.add_argument("--time-limit", type=float, default=30.0)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mapfla", description="MAPF solver for large disk agents")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a scenario and write the plan")
    p.add_argument("--map", required=True)
    p.add_argument("--scen", required=True)
    p.add_argument("--agents", type=int, default=None)
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="check a plan against a scenario")
    p.add_argument("--map", required=True)
    p.add_argument("--scen", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--agents", type=int, default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="write preset roadmap and scenario files")
    p.add_argument("--preset", choices=sorted(PRESETS), default="sparse-like")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenarios", type=int, default=25)
    p.add_argument("--pairs", type=int, default=40)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run the success-rate benchmark, emit CSV")
    p.add_argument("--preset", choices=sorted(PRESETS), default="sparse-like")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenarios", type=int, default=25)
    p.add_argument("--pairs", type=int, default=40)
    p.add_argument("--modes", default="la,naive")
    p.add_argument("--n", default="2..40", help="agent counts, e.g. 2..40 or 8")
    p.add_argument("--time-limit", type=float, default=30.0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="render a plan as SVG frames")
    p.add_argument("--map", required=True)
    p.add_argument("--scen", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--agents", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except fileio.FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except InvalidInstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
