"""Spans around soclearn's cross-module calls, and their self-time arithmetic.

The traced benchmark run replaces selected module attributes of the
package with wrappers that record one span per call: name, start, end
and the index of the enclosing span. Spans stay in memory until the job
ends. Nothing here is imported by the untraced runs.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter


class TraceContractError(RuntimeError):
    """A wrapped name is missing, or an expected span never fired."""


class Tracer:
    """Records nested spans and named counters for one process."""

    def __init__(self):
        # each span is [name, start, end, parent index or -1]
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list = []

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``after(tracer, result, args, kwargs)`` runs once the span has
        closed, so counting work is never charged to the wrapped layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return traced


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover.

    Child intervals are clipped to the parent and merged before being
    subtracted, so overlapping or stray children never count twice.
    """
    children = [[] for _ in spans]
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> dict:
    """Per span name: number of calls, summed duration and summed self time.

    Also returns the summed duration of root spans and the summed self
    time of all spans; for properly nested spans the two are equal.
    """
    selfs = self_times(spans)
    by_name: dict = {}
    root_sum = 0.0
    for (name, start, end, parent), own in zip(spans, selfs):
        entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
        if parent < 0:
            root_sum += end - start
    return {"by_name": by_name, "root_sum_s": root_sum, "self_sum_s": sum(selfs)}


def _resolve(target: str):
    """``"pkg.module:Attr"`` or ``"pkg.module:Class.attr"`` to (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise TraceContractError(f"{module_name}.{part} is missing")
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise TraceContractError(f"{target.replace(':', '.')} is missing")
    return owner, attr


def install(tracer: Tracer, wraps) -> None:
    """Replace each ``(target, span name, after)`` with a traced wrapper.

    A ``functools.cached_property`` keeps its caching: only the function
    it computes with is wrapped.
    """
    for target, name, after in wraps:
        owner, attr = _resolve(target)
        original = vars(owner)[attr]
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(
                tracer.wrap(name, original.func, after)
            )
            replacement.__set_name__(owner, attr)
        else:
            replacement = tracer.wrap(name, original, after)
        setattr(owner, attr, replacement)
