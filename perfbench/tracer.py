"""Span tracer for the benchmark's traced runs.

Spans are recorded around the public functions of ``mapfla``'s layers by
patching, at run time, the module and class attributes their callers resolve
(for example ``mapfla.solver.build_interference`` and
``mapfla.solver.Workspace.move_la``).  No file of the package changes.

Spans are not kept one by one: the recursive clearing stack produces millions
of them on a crowded instance.  Each span's duration and self time (duration
minus the time its child spans cover) are folded into one record per
``(label, layer)``, where the label names the instance being measured.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

CountHook = Callable[[tuple, Any], Mapping[str, float]]


@dataclass(frozen=True)
class Probe:
    """One layer to trace: where its function lives and what to count.

    ``targets`` are ``"module:attr.path"`` names; every one that resolves is
    patched, so a function re-exported into a caller's namespace is wrapped
    where that caller looks it up.  ``before`` sees the call's positional
    arguments, ``after`` the arguments and the return value; both return
    counter increments.  An untimed probe records counters only.
    """

    layer: str
    targets: tuple[str, ...]
    before: CountHook | None = None
    after: CountHook | None = None
    timed: bool = True


class Tracer:
    """Stack of open spans plus per-``(label, layer)`` aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.label: Any = "setup"
        self._stack: list[list] = []  # [layer, start, child_time]
        self.spans: dict[tuple[Any, str], list] = {}  # -> [calls, self_s]
        self.counters: dict[tuple[Any, str], float] = {}

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        layer, start, child = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        rec = self.spans.get((self.label, layer))
        if rec is None:
            rec = self.spans[(self.label, layer)] = [0, 0.0]
        rec[0] += 1
        rec[1] += duration - child
        return duration

    def count(self, layer: str, increments: Mapping[str, float]) -> None:
        for name, amount in increments.items():
            key = (self.label, f"{layer}.{name}")
            self.counters[key] = self.counters.get(key, 0) + amount

    def totals(self, exclude: Sequence[Any] = ()) -> tuple[dict, dict]:
        """Sum spans and counters over every label not in ``exclude``:
        ``({layer: [calls, self_s]}, {counter: value})``."""
        spans: dict[str, list] = {}
        for (label, layer), (calls, self_s) in self.spans.items():
            if label in exclude:
                continue
            rec = spans.setdefault(layer, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        counters: dict[str, float] = {}
        for (label, name), value in self.counters.items():
            if label not in exclude:
                counters[name] = counters.get(name, 0) + value
        return spans, counters

    def records(self) -> list[dict]:
        """Aggregated spans and counters, one entry per ``(label, layer)``."""
        out = [
            {"label": label, "layer": layer, "calls": calls, "self_s": self_s}
            for (label, layer), (calls, self_s) in self.spans.items()
        ]
        out += [
            {"label": label, "counter": name, "value": value}
            for (label, name), value in self.counters.items()
        ]
        return out


def _resolve(target: str) -> tuple[Any, str, Callable] | None:
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, "__dict__", {}).get(part)
        if owner is None:
            return None
    fn = getattr(owner, "__dict__", {}).get(name)
    if not callable(fn):
        return None
    return owner, name, fn


def _wrap(fn: Callable, probe: Probe, tracer: Tracer) -> Callable:
    layer, before, after = probe.layer, probe.before, probe.after
    enter, exit_, count = tracer.enter, tracer.exit, tracer.count

    if not probe.timed:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if before is not None:
                count(layer, before(args, None))
            result = fn(*args, **kwargs)
            if after is not None:
                count(layer, after(args, result))
            return result

        return counted

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if before is not None:
            count(layer, before(args, None))
        enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            count(layer, after(args, result))
        return result

    return timed


class Patched:
    """Context manager that wraps every resolvable probe target and restores
    the original attributes on exit.

    A probe none of whose targets resolves is listed in ``absent`` instead of
    raising, so the tracer keeps working when a layer is renamed or removed.
    """

    def __init__(self, tracer: Tracer, probes: Sequence[Probe]):
        self.tracer = tracer
        self.probes = tuple(probes)
        self.absent: list[str] = []
        self._saved: list[tuple[Any, str, Callable]] = []

    def __enter__(self) -> "Patched":
        try:
            for probe in self.probes:
                found = False
                for target in probe.targets:
                    hit = _resolve(target)
                    if hit is None:
                        continue
                    owner, name, fn = hit
                    self._saved.append((owner, name, fn))
                    setattr(owner, name, _wrap(fn, probe, self.tracer))
                    found = True
                if not found:
                    self.absent.append(probe.layer)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)
