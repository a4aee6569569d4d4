"""How fast the machine runs right now, for scaling measured times.

On a shared host the same pure-Python work can take 1.6 times longer for
tens of seconds at a time (measured on a 2-core VM: a fixed loop alternated
between about 18 ms and 28 ms in 5-second bins).  Such phases are longer
than a benchmark run, so repeating work inside a run does not remove them.

:class:`Speedometer` times a fixed loop that uses no code of the package,
at most every ``PROBE_EVERY_S`` seconds, and reports the current slowdown: that
loop's time divided by ``REFERENCE_S``, its time on an unloaded machine.
Dividing a measured time by the slowdown of its moment gives the time the
same work takes at reference speed.  A change to the package cannot move the
loop, so a regression shows in full; only the host's load is taken out.
"""

from __future__ import annotations

import math
import time
from typing import Callable

# Fastest time of `reference_loop` seen on the 2-core reference machine
# (Python 3.11), which defines slowdown 1.0.
REFERENCE_S = 0.00124

# Shortest time between two probes of the loop.
PROBE_EVERY_S = 0.25


def reference_loop() -> float:
    """Fixed interpreter-bound work: dict updates, tuple hashing, float math."""
    seen: dict[tuple[int, int], int] = {}
    acc = 0.0
    for i in range(4000):
        k = (i * 7919) % 613
        key = (k, i & 7)
        seen[key] = seen.get(key, 0) + 1
        acc += math.hypot(i, k)
    return acc + len(seen)


class Speedometer:
    """Current slowdown of the machine relative to ``REFERENCE_S``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.samples: list[float] = []
        self._last = -math.inf
        self._slowdown = 1.0

    def slowdown(self) -> float:
        """The latest slowdown, re-measured when ``PROBE_EVERY_S`` has passed."""
        if self.clock() - self._last >= PROBE_EVERY_S:
            best = math.inf
            for _ in range(3):
                t0 = self.clock()
                reference_loop()
                best = min(best, self.clock() - t0)
            self._slowdown = best / REFERENCE_S
            self.samples.append(self._slowdown)
            self._last = self.clock()
        return self._slowdown
