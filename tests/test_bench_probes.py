"""The benchmark's layer probes resolve against the package.

``perfbench`` wraps package functions by name and lists a probe none of
whose targets resolves as absent rather than failing, so deleting or
renaming a probed function would silently zero its per-layer metrics.  Two
probes name functions deleted earlier, ``model.build_interference`` and
``solver.bfs_dists``; the benchmark's next change drops them, and this list
goes with them.  Any other absent probe fails here.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import PROBES  # noqa: E402
from perfbench.tracer import Patched, Tracer  # noqa: E402

KNOWN_ABSENT = ["model.build_interference", "solver.bfs_dists"]


def test_only_the_probes_of_deleted_functions_are_absent():
    with Patched(Tracer(), PROBES) as patched:
        pass
    assert sorted(patched.absent) == KNOWN_ABSENT
