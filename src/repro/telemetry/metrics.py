"""A small labeled-series metrics registry.

Two instrument kinds, matching what the benches and the future
serving layer need to read:

- :class:`Counter` — monotonically increasing totals (frames sent,
  windows processed);
- :class:`Histogram` — observation sets with nearest-rank percentile
  queries (stage latencies).

Series are keyed by ``name`` plus a sorted label set, rendered as
``name{k=v,...}`` in snapshots.  Get-or-create is the only access
path, so instrumentation sites never need registration boilerplate.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ConfigurationError


def series_key(name: str, labels: Mapping[str, str]) -> str:
    """Render the canonical ``name{k=v,...}`` series key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up; got increment {amount}"
            )
        self.value += amount


class Histogram:
    """An observation set with nearest-rank percentile queries."""

    def __init__(self) -> None:
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100]."""
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile q must be in [0, 100]: {q}")
        if not self.values:
            raise ConfigurationError(
                "percentile of an empty histogram is undefined"
            )
        ordered = sorted(self.values)
        rank = max(1, -(-len(ordered) * q // 100)) if q > 0 else 1
        return ordered[int(rank) - 1]


class MetricsRegistry:
    """Get-or-create registry of labeled counter/histogram series."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(self._histograms, Histogram, name, labels)

    @staticmethod
    def _get(store: dict, factory: type, name: str, labels: Mapping) -> Any:
        key = series_key(name, labels)
        inst = store.get(key)
        if inst is None:
            inst = store[key] = factory()
        return inst

    def counter_values(self) -> dict[str, float]:
        """All counter series, keyed by ``name{labels}``."""
        return {k: c.value for k, c in sorted(self._counters.items())}

    def snapshot(self) -> dict[str, Any]:
        """One JSON-ready dict of every series in the registry."""
        out: dict[str, Any] = {
            "counters": self.counter_values(),
            "histograms": {},
        }
        for key, hist in sorted(self._histograms.items()):
            if not hist.count:
                out["histograms"][key] = {"count": 0}
                continue
            out["histograms"][key] = {
                "count": hist.count,
                "total": hist.total,
                "p50": hist.percentile(50),
                "p90": hist.percentile(90),
                "p99": hist.percentile(99),
            }
        return out
