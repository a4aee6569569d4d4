import concurrent.futures
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import mapfla
from mapfla import fileio, harness
from mapfla.harness import gen_roadmap, gen_scenario, run_bench
from mapfla.model import Instance, Move, Roadmap, make_roadmap
from mapfla.solver import SolverConfig, SolveStats


def test_public_names_resolve_and_exclude_solver_internals():
    for name in mapfla.__all__:
        assert getattr(mapfla, name) is not None, name
    for name in ("Workspace", "GraphView", "EdgeContext", "reverse_plan"):
        assert name not in mapfla.__all__
        assert not hasattr(mapfla, name)


# -- import footprint ----------------------------------------------------------

# The modules ``perfbench/run.py`` imports in a fresh interpreter to time the
# set-up, and the CLI's.
MEASURED = ("harness", "model", "oracle", "solver", "validator", "cli")
# Modules a solve never uses: the process pool's, the dataclass machinery and
# logging, whose records the package drops unless something else imports it.
UNUSED = ("dataclasses", "inspect", "logging", "multiprocessing", "concurrent.futures.process")

_NEWLY_LOADED = (
    "import sys; sys.path[:0] = sys.argv[1:]; before = set(sys.modules); "
    + "; ".join(f"import mapfla.{name}" for name in MEASURED)
    + "; print(*sorted(set(sys.modules) - before))"
)


def test_importing_the_package_loads_no_process_pool_or_dataclasses():
    # Modules a ``site`` hook loaded before the first import do not count.
    src = str(Path(mapfla.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _NEWLY_LOADED, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(done.stdout.split())
    assert {f"mapfla.{name}" for name in MEASURED} <= loaded
    assert loaded.isdisjoint(UNUSED), sorted(loaded.intersection(UNUSED))


def test_the_cli_loads_the_svg_writer_only_to_render():
    src = str(Path(mapfla.__file__).resolve().parents[1])
    probe = (
        "import sys; sys.path[:0] = sys.argv[1:]; import mapfla.cli; "
        "print('mapfla.render' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == ["False"]


def _run_python(code: str, tmp_path, env_log: str | None = None):
    """Run ``code`` in a fresh interpreter that imports this checkout, in a
    directory holding ``t.map`` and ``t.scen``: a small solvable instance."""
    rm = make_roadmap([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)], [(0, 1), (1, 2)])
    fileio.save_roadmap(tmp_path / "t.map", rm, 0.4)
    fileio.save_scenario(tmp_path / "t.scen", "t.map", ((0, 2),))
    env = {k: v for k, v in os.environ.items() if k != "MAPFLA_LOG"}
    if env_log is not None:
        env["MAPFLA_LOG"] = env_log
    src = str(Path(mapfla.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = sys.argv[1:]; " + code, src],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60, check=True,
    )


_CLI_SOLVE = (
    "from mapfla import cli; "
    "code = cli.main(['solve', '--map', 't.map', '--scen', 't.scen']); "
    "print(code, 'logging' in sys.modules)"
)


def test_a_cli_solve_without_mapfla_log_loads_no_logging(tmp_path):
    done = _run_python(_CLI_SOLVE, tmp_path)
    assert done.stdout.splitlines()[-1] == "0 False"
    assert done.stderr == ""


def test_a_cli_solve_with_mapfla_log_trace_prints_the_solve_line(tmp_path):
    done = _run_python(_CLI_SOLVE, tmp_path, env_log="trace")
    assert done.stdout.splitlines()[-1] == "0 True"
    assert done.stderr.startswith("mapfla.solver: solve: solved after 1 attempt(s), ")


def test_logging_configured_after_the_import_gets_the_solve_record(tmp_path):
    done = _run_python(
        "import mapfla; import logging; logging.basicConfig(level=logging.INFO); "
        "from mapfla import fileio; from mapfla.harness import Scenario, "
        "instance_from_scenario; roadmap, radius = fileio.load_roadmap('t.map'); "
        "scenario = Scenario(*fileio.load_scenario('t.scen')); "
        "print(mapfla.solve(instance_from_scenario(roadmap, radius, scenario)).status)",
        tmp_path,
    )
    assert done.stdout.split() == ["solved"]
    assert done.stderr.startswith("INFO:mapfla.solver:solve: solved after 1 attempt(s), ")


def test_a_solve_after_an_in_process_cli_call_reaches_the_callers_handler(tmp_path):
    done = _run_python(
        "import logging; logging.basicConfig(level=logging.INFO); import mapfla; "
        "from mapfla import cli, fileio; from mapfla.harness import Scenario, "
        "instance_from_scenario; "
        "code = cli.main(['gen', '--seed', '1', '--scenarios', '0', '--out', 'gen']); "
        "roadmap, radius = fileio.load_roadmap('t.map'); "
        "scenario = Scenario(*fileio.load_scenario('t.scen')); "
        "print(code, mapfla.solve(instance_from_scenario(roadmap, radius, scenario)).status)",
        tmp_path,
    )
    assert done.stdout.splitlines()[-1] == "0 solved"
    assert done.stderr.startswith("INFO:mapfla.solver:solve: solved after 1 attempt(s), ")


def test_a_parallel_bench_still_runs_on_a_process_pool(monkeypatch):
    created = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            created.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    rm = gen_roadmap(24, 3.6, 1.0, (9, 9), seed=6)
    args = ({"tiny": (rm, 0.48)}, {"tiny": [gen_scenario(rm, 4, seed=s) for s in (1, 2)]},
            ["la"], [2, 4], 5.0)
    pooled = run_bench(*args, jobs=2)
    assert created == [2]
    serial = run_bench(*args)
    assert [r._replace(mean_ms=0) for r in pooled.rows] == [
        r._replace(mean_ms=0) for r in serial.rows
    ]


# -- value semantics -----------------------------------------------------------


def _roadmap():
    return make_roadmap([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)], [(0, 1), (2, 1)])


def test_a_roadmap_compares_hashes_and_shows_only_its_points_and_edges():
    rm, twin = _roadmap(), _roadmap()
    rm.hops_to(0)
    rm.separation_issues(0.4)
    assert rm == twin and hash(rm) == hash(twin) == hash((rm.points, rm.edge_list))
    assert rm != make_roadmap(rm.points, [(0, 1)])
    assert rm != (rm.points, rm.edge_list)
    assert Roadmap(rm.points, rm.edge_list) == Roadmap(points=rm.points, edge_list=rm.edge_list)
    assert repr(rm) == (
        "Roadmap(points=((0.0, 0.0), (2.0, 0.0), (2.0, 2.0)), edge_list=((0, 1), (2, 1)))"
    )


@pytest.mark.parametrize("name", ["points", "edge_list", "goal_hops", "adjacency", "other"])
def test_assigning_to_a_roadmap_raises(name):
    rm = _roadmap()
    with pytest.raises(AttributeError, match="immutable"):
        setattr(rm, name, ())


def test_a_pickled_roadmap_keeps_its_tables_and_caches():
    rm = _roadmap()
    rm.hops_to(2)
    tables = {name: getattr(rm, name) for name in (
        "edge_set", "adjacency", "edge_issues", "x_order", "vertex_issues"
    )}
    copy = pickle.loads(pickle.dumps(rm))
    assert copy == rm and copy is not rm
    assert {name: vars(copy)[name] for name in tables} == tables
    assert copy.goal_hops[2] == rm.goal_hops[2] == ([2, 1, 0], [], 3)
    assert copy.interference_tables == copy.edge_bands == {}


def test_instances_moves_and_configs_build_by_keyword_and_replace_fields():
    rm = _roadmap()
    inst = Instance(roadmap=rm, radius=0.4, starts=(0,), goals=(2,))
    assert inst == Instance(rm, 0.4, (0,), (2,)) and inst.n_agents == 1
    assert inst._replace(goals=(1,)) == Instance(rm, 0.4, (0,), (1,))
    move = Move(agent=0, src=1, dst=2)
    assert move._replace(dst=0) == Move(0, 1, 0) and (move.agent, move.src, move.dst) == (0, 1, 2)
    assert SolverConfig() == SolverConfig(mode="la", order="index", time_limit=30.0)
    assert SolverConfig()._replace(mode="naive").mode == "naive"


def test_solve_stats_start_at_zero_and_compare_by_value():
    stats = SolveStats()
    assert repr(stats) == (
        "SolveStats(elapsed=0.0, moves=0, move_la_calls=0, case3_failures=0, "
        "attempts=0, bands_computed=0, hop_tables_computed=0)"
    )
    stats.moves += 3
    assert stats == SolveStats(moves=3) and stats != SolveStats()


# -- line counts ---------------------------------------------------------------


def test_the_line_counts_of_each_module_sum_to_its_lines(capsys):
    import line_counts

    source = '"""Doc,\n\non two lines."""\n# note\n\nx = """a\n\nb"""  # tail\n'
    assert line_counts.count(source) == {
        "lines": 8, "code": 3, "docstrings": 3, "comments": 1, "blank": 1,
    }
    per_file = line_counts.package_counts()
    assert {"model.py", "solver.py", "cli.py"} <= set(per_file)
    for name, counts in per_file.items():
        parts = counts["code"] + counts["docstrings"] + counts["comments"] + counts["blank"]
        assert parts == counts["lines"] > 0, name
    assert line_counts.main([]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total == ["total"] + [
        str(sum(c[kind] for c in per_file.values())) for kind in line_counts.KINDS
    ]
    # Against itself, every module and the total change by zero in every column.
    assert line_counts.main(["--diff", str(line_counts.PACKAGE)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == [*per_file, "total"]
    plain = [[str(c[kind]) for kind in line_counts.KINDS] for c in per_file.values()]
    for row, counts in zip(rows, [*plain, total[1:]], strict=True):
        assert row[1::2] == counts and row[2::2] == ["(+0)"] * len(counts), row
