"""Microbenchmark of the package's cold import (pytest-benchmark).

    pytest tests/bench_import.py

The suite collects only ``test_*.py`` files, so it does not run this one.
Each round starts a fresh interpreter, as ``perfbench/run.py`` does for a
set-up, and times the whole process:

* ``interpreter``: start-up alone, the floor under every set-up;
* ``package``: start-up, then the imports ``perfbench/run.py`` times
  (``mapfla.harness``, ``model``, ``oracle``, ``solver`` and ``validator``);
* ``cli``: start-up, then ``import mapfla.cli``, what each CLI call pays.

The child times its own imports with ``time.perf_counter`` too, the figure
``perfbench/run.py`` adds to ``setup_s``; their median is stored as
``extra_info["import_ms_median"]``.  Run with ``PYTHONDONTWRITEBYTECODE=1``
to time the source compile that a host without bytecode caching pays.
"""

import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import mapfla

SRC = str(Path(mapfla.__file__).resolve().parents[1])
PERFBENCH = ("harness", "model", "oracle", "solver", "validator")
IMPORTS = {
    "interpreter": (),
    "package": PERFBENCH,
    "cli": ("cli",),
}


def _code(modules):
    return (
        "import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
        + "".join(f"import mapfla.{name}; " for name in modules)
        + "print(time.perf_counter() - t0)"
    )


@pytest.mark.parametrize("case", IMPORTS)
def test_cold_import(benchmark, case):
    code = _code(IMPORTS[case])
    took = []

    def run():
        done = subprocess.run(
            [sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True
        )
        took.append(float(done.stdout))

    benchmark.pedantic(run, rounds=21, warmup_rounds=1)
    benchmark.extra_info["import_ms_median"] = statistics.median(took) * 1e3
