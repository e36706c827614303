"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`install`
swaps each named entry point for a wrapper that opens a span around
the call, everywhere the entry point is bound (its defining class or
module, and every ``repro`` module that imported it by name).  A span
is ``(name, start, end, parent, cell)``; a span's self time is its
duration minus the durations of its direct children, so the self times
of one cell's spans add up to the cell's own span.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

_clock = time.perf_counter

#: ``after(tracer, args, kwargs, result)``: counts taken once a
#: wrapped call has returned.
After = Callable[["SpanTracer", tuple, dict, Any], None]


class SpanTracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cell = array("q")
        self._stack: list[int] = []
        self.cell_index = -1
        self.counts: dict[str, float] = {}

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cell.append(self.cell_index)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def open_cell(self) -> int:
        """Open the root span of the next cell."""
        self.cell_index += 1
        return self.open("cell")

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def wrap(
        self, name: str, fn: Callable[..., Any], after: Optional[After] = None
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # -- counters ------------------------------------------------------
    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0.0), value)

    def count(self, key: str) -> float:
        return self.counts.get(key, 0.0)

    # -- analysis ------------------------------------------------------
    def fired(self) -> set[str]:
        return set(self.names)

    def durations(self, normalise: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Span durations on the clock ``normalise`` maps raw times to."""
        if self._stack:
            raise RuntimeError("spans still open")
        start = normalise(np.frombuffer(self.start, dtype=float))
        end = normalise(np.frombuffer(self.end, dtype=float))
        return end - start

    def self_times(self, durations: np.ndarray) -> np.ndarray:
        """Each span's duration minus its direct children's durations."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        own = np.array(durations, dtype=float)
        child = parent >= 0
        np.subtract.at(own, parent[child], durations[child])
        return own

    def spans_json(self, durations: np.ndarray) -> dict[str, Any]:
        """The span table, column-wise, for writing to disk."""
        return {
            "columns": ["name", "start_s", "end_s", "parent", "cell", "norm_s"],
            "name": self.names,
            "start_s": list(self.start),
            "end_s": list(self.end),
            "parent": list(self.parent),
            "cell": list(self.cell),
            "norm_s": [float(d) for d in durations],
        }


@dataclass(frozen=True)
class EntryPoint:
    """One traced callable: ``owner.attr`` (a class or a module)."""

    owner: Any
    attr: str
    after: Optional[After] = None

    @property
    def name(self) -> str:
        if isinstance(self.owner, type):
            return f"{self.owner.__name__}.{self.attr}"
        return self.attr


def install(
    tracer: SpanTracer,
    entries: Sequence[EntryPoint],
    module_prefixes: Sequence[str] = ("repro",),
) -> None:
    """Wrap every entry point where it is bound, for the process's life.

    A module-level function is also replaced in every loaded module
    whose name starts with one of ``module_prefixes`` and that bound it
    by name, so the runners' own imports are traced.  A missing entry
    point raises ``AttributeError``: a moved layer must fail the
    benchmark, not report zero time.
    """
    for entry in entries:
        original = getattr(entry.owner, entry.attr)
        wrapped = tracer.wrap(entry.name, original, entry.after)
        owners = [entry.owner]
        if not isinstance(entry.owner, type):
            owners += [
                mod
                for mod_name, mod in list(sys.modules.items())
                if mod is not None
                and mod is not entry.owner
                and mod_name.startswith(tuple(module_prefixes))
                and getattr(mod, entry.attr, None) is original
            ]
        for owner in owners:
            setattr(owner, entry.attr, wrapped)
