"""Unit tests for the obs metrics instruments and snapshot merge."""

from __future__ import annotations

import itertools

import pytest

from repro.obs import metrics


@pytest.fixture
def live_registry():
    metrics.deactivate()
    registry = metrics.activate()
    yield registry
    metrics.deactivate()


def _snapshot_with(counts: dict[str, int]) -> dict:
    registry = metrics.MetricsRegistry()
    for name, value in counts.items():
        registry.counter(name).inc(value)
    return registry.snapshot()


def test_disabled_accessors_are_shared_null_instruments():
    metrics.deactivate()
    assert not metrics.enabled()
    assert metrics.counter("a") is metrics.counter("b")
    assert metrics.gauge("a") is metrics.gauge("b")
    # No-ops never raise and never record anything.
    metrics.counter("a").inc(5)
    metrics.gauge("a").set(1.0)
    assert metrics.registry().snapshot() == {"counters": {}, "gauges": {}}


def test_live_registry_memoizes_and_snapshots(live_registry):
    counter = metrics.counter("hits")
    assert metrics.counter("hits") is counter
    counter.inc()
    counter.inc(4)
    metrics.gauge("slo").set(0.75)
    snapshot = live_registry.snapshot()
    assert snapshot["counters"] == {"hits": 5}
    assert snapshot["gauges"] == {"slo": {"value": 0.75, "updates": 1}}


def test_counter_merge_is_associative_in_any_order():
    parts = [
        _snapshot_with({"x": 3, "y": 1}),
        _snapshot_with({"x": 4}),
        _snapshot_with({"y": 2, "z": 7}),
    ]
    merged = [
        metrics.merge_snapshots(list(order))["counters"]
        for order in itertools.permutations(parts)
    ]
    assert all(m == {"x": 7, "y": 3, "z": 7} for m in merged)
    # Re-associating through a partial merge gives the same totals.
    partial = metrics.merge_snapshots(parts[:2])
    assert metrics.merge_snapshots([partial, parts[2]])["counters"] == merged[0]


def test_gauge_merge_is_order_independent():
    a = metrics.MetricsRegistry()
    a.gauge("slo").set(0.2)
    a.gauge("slo").set(0.4)
    b = metrics.MetricsRegistry()
    b.gauge("slo").set(0.9)
    fwd = metrics.merge_snapshots([a.snapshot(), b.snapshot()])
    rev = metrics.merge_snapshots([b.snapshot(), a.snapshot()])
    # The gauge with more updates wins regardless of fold order.
    assert fwd["gauges"]["slo"] == {"value": 0.4, "updates": 2}
    assert fwd == rev
