"""Counters and gauges with mergeable snapshots.

A process-local registry whose snapshot merging folds partial
aggregates with the same add-the-counters semantics the population
report already trusts.  Every merge is exact, so merged snapshots are
identical in any order, which ``tests/obs`` asserts.

When tracing is disabled (the default) the module-level accessors
return shared null instruments whose methods are empty — no allocation,
no dict lookup, no branch in the caller — so instrumented hot paths are
genuinely free.  :func:`activate`/:func:`deactivate` are driven by
:mod:`repro.obs.trace`; instrumentation sites never toggle state.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "activate",
    "counter",
    "deactivate",
    "enabled",
    "gauge",
    "merge_snapshots",
    "registry",
]


class Counter:
    """A monotonically increasing integer; merge is exact addition."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-written float plus its update count (for merge tie-breaks)."""

    __slots__ = ("value", "updates")

    def __init__(self) -> None:
        self.value: float | None = None
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1


class _NullCounter:
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        return None


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        return None


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()


class MetricsRegistry:
    """Name -> instrument table for one process."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def snapshot(self) -> dict:
        """A JSON-serializable, mergeable image of every instrument."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: {"value": g.value, "updates": g.updates}
                for name, g in sorted(self._gauges.items())
            },
        }


class _NullRegistry:
    """The disabled singleton: every accessor returns a shared no-op."""

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}}


_NULL_REGISTRY = _NullRegistry()
_active = _NULL_REGISTRY


def registry():
    """The process-active registry (the null singleton when disabled)."""
    return _active


def enabled() -> bool:
    return _active.enabled


def counter(name: str):
    return _active.counter(name)


def gauge(name: str):
    return _active.gauge(name)


def activate() -> MetricsRegistry:
    """Install (or return) a live registry for this process."""
    global _active
    if not _active.enabled:
        _active = MetricsRegistry()
    return _active


def deactivate() -> None:
    """Restore the null registry (instrumentation goes back to free)."""
    global _active
    _active = _NULL_REGISTRY


# ---------------------------------------------------------------------------
# Snapshot merge
# ---------------------------------------------------------------------------


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold per-process snapshots into one (associative for counters).

    Counters add exactly, so their merged state is identical for every
    order of ``snapshots``; a gauge keeps the value with the most updates
    (ties broken toward the larger value, so the fold is
    order-independent).
    """
    counters: dict[str, int] = {}
    gauges: dict[str, dict] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, state in snapshot.get("gauges", {}).items():
            held = gauges.get(name)
            if held is None or _gauge_wins(state, held):
                gauges[name] = dict(state)
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
    }


def _gauge_wins(incoming: dict, held: dict) -> bool:
    if incoming["updates"] != held["updates"]:
        return incoming["updates"] > held["updates"]
    lhs = incoming["value"] if incoming["value"] is not None else float("-inf")
    rhs = held["value"] if held["value"] is not None else float("-inf")
    return lhs > rhs
