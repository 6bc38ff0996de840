"""Bit-parity: tracing must never perturb results, at any shard count."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.obs import report, trace
from repro.sim.demand import DemandScenario, run_population
from repro.sim.runner import BatchEngine, RunSpec, run
from repro.sim.systems import SYSTEM_NAMES


def _scenario():
    return DemandScenario.from_payload(
        {
            "name": "parity-town",
            "horizon_ms": 200_000,
            "arrivals": {"process": "poisson", "rate_per_min": 3.0},
            "party_sizes": {"1": 0.6, "2": 0.4},
            "duration_frames": {"min": 8, "max": 10},
            "clients": [
                {"app": "GRID", "share": 1.0},
                {"app": "UT3", "share": 1.0},
            ],
            "profiles": {"default": 3.0, "lte": 1.0},
            "churn": {"late_join": 0.2, "leave": 0.2, "switch": 0.1},
            "fleet": {"servers": {"east": 2}, "placement": "least-loaded"},
            "policies": ["fair-share"],
            "slo": {"p99_fps_floor": 45.0},
        }
    )


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("system", SYSTEM_NAMES)
def test_every_system_result_is_bit_identical_with_tracing(tmp_path, system):
    """Each design's traced branches (its frame-pass span, the foveated
    cache counters) leave the full result unchanged.  Compared by pickle:
    NaN fields defeat dataclass equality."""
    spec = RunSpec(system=system, app="GRID", n_frames=60, seed=23)
    trace.configure(tmp_path / "t", process="parent")
    try:
        traced = run(spec)
    finally:
        trace.shutdown()
    assert pickle.dumps(traced) == pickle.dumps(run(spec))
    events, _ = report.load_trace(tmp_path / "t")
    assert any(event["name"] == "kernels.frame_pass" for event in events)


@pytest.mark.parametrize("shards", [None, 1, 4])
def test_population_report_is_bit_identical_with_tracing(tmp_path, shards):
    scenario = _scenario()
    kwargs = {"seed": 7, "max_sessions": 6}

    baseline = run_population(
        scenario, engine=BatchEngine(shards=shards), **kwargs
    )

    trace.configure(tmp_path / "t", process="parent")
    try:
        traced = run_population(
            scenario, engine=BatchEngine(shards=shards), **kwargs
        )
    finally:
        trace.shutdown()

    assert _canonical(traced) == _canonical(baseline)
    # The traced run actually recorded something.
    events, merged = report.load_trace(tmp_path / "t")
    names = {event["name"] for event in events}
    assert "population.policy" in names
    assert merged["counters"].get("population.executed.fair-share", 0) > 0


def test_traced_pool_workers_produce_mergeable_streams(tmp_path):
    scenario = _scenario()
    kwargs = {"seed": 7, "max_sessions": 6}
    baseline = run_population(scenario, engine=BatchEngine(), **kwargs)
    trace.configure(tmp_path / "t", process="parent")
    try:
        traced = run_population(
            scenario,
            engine=BatchEngine(jobs=2, shards=2),
            **kwargs,
        )
    finally:
        trace.shutdown()
    assert _canonical(traced) == _canonical(baseline)
    events, merged = report.load_trace(tmp_path / "t")
    # Worker processes re-anchored into their own per-PID streams and
    # their execute spans merged alongside the parent's.
    procs = {event["proc"] for event in events}
    assert "parent" in procs
    executes = [e for e in events if e["name"] == "shard.execute"]
    assert executes and all(e["kind"] in ("span_begin", "span_end")
                            for e in executes)
