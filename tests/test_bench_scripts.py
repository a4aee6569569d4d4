"""The suite collects only ``test_*.py`` files, so the ``bench_*.py``
microbenchmarks run here once with timing off: a script that no longer
matches the code it patches or calls fails this test, not only its next
timed run.  None of them asserts a timing."""

import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_every_bench_script_passes_with_benchmarks_disabled():
    scripts = sorted(str(p) for p in TESTS.glob("bench_*.py"))
    assert scripts
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", *scripts],
        cwd=TESTS.parent, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
