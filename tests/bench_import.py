"""Microbenchmark of the package's cold import (pytest-benchmark).

    pytest tests/bench_import.py

The suite collects only ``test_*.py`` files, so it does not run this one.
Each round starts a fresh interpreter, as ``perfbench/run.py`` does for a
set-up, and times the whole process:

* ``interpreter``: start-up alone, the floor under every set-up;
* ``package``: start-up, then the imports ``perfbench/run.py`` times
  (``mapfla.harness``, ``model``, ``oracle``, ``solver`` and ``validator``);
* ``cli``: start-up, then ``import mapfla.cli``;
* ``cli-solve``: start-up, then ``import mapfla.cli`` and
  ``mapfla.cli.main(["solve", ...])`` on the roadmap and the first scenario,
  10 pairs, that ``mapfla gen`` writes for the sparse-like preset, with
  ``MAPFLA_LOG`` unset: what one ``mapfla solve`` call pays.

The child times its own imports, and for ``cli-solve`` the solve call too,
with ``time.perf_counter``, the figure ``perfbench/run.py`` adds to
``setup_s``; their median is stored as ``extra_info["import_ms_median"]``.
Run with ``PYTHONDONTWRITEBYTECODE=1`` to time the source compile that a
host without bytecode caching pays.
"""

import contextlib
import io
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import mapfla
from mapfla import cli

SRC = str(Path(mapfla.__file__).resolve().parents[1])
PERFBENCH = ("harness", "model", "oracle", "solver", "validator")
CASES = {
    "interpreter": "",
    "package": "".join(f"import mapfla.{name}; " for name in PERFBENCH),
    "cli": "import mapfla.cli; ",
    "cli-solve": "import mapfla.cli; mapfla.cli.main(sys.argv[2:]); ",
}


@pytest.fixture(scope="module")
def solve_argv(tmp_path_factory):
    """The ``solve`` arguments of a ``gen`` roadmap and scenario."""
    out = tmp_path_factory.mktemp("gen")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--scenarios", "1", "--pairs", "10", "--out", str(out)]) == 0
    return ["solve", "--map", str(out / "sparse-like-0.map"),
            "--scen", str(out / "sparse-like-0-scen00.scen")]


@pytest.mark.parametrize("case", CASES)
def test_cold_import(benchmark, solve_argv, case):
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
        + CASES[case]
        + "print(time.perf_counter() - t0)"
    )
    argv = [sys.executable, "-c", code, SRC] + (solve_argv if case == "cli-solve" else [])
    env = {k: v for k, v in os.environ.items() if k != "MAPFLA_LOG"}
    took = []

    def run():
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        took.append(float(done.stdout.split()[-1]))

    benchmark.pedantic(run, rounds=21, warmup_rounds=1)
    benchmark.extra_info["import_ms_median"] = statistics.median(took) * 1e3
