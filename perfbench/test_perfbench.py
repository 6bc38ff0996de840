"""Fast checks of the benchmark itself, at tiny workload sizes.

Runs with the repository suite (``PYTHONPATH=src python -m pytest``) or
alone (``PYTHONPATH=src python -m pytest perfbench``).
"""

from __future__ import annotations

import json
import time

import pytest

from perfbench import layers, rep, run, workloads


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few specs."""
    monkeypatch.setattr(workloads, "FIG12_SYSTEMS", ("local", "qvr"))
    monkeypatch.setattr(workloads, "FIG12_SEEDS_PER_RUN", 1)
    monkeypatch.setattr(workloads, "FIG12_FRAMES", 24)
    monkeypatch.setattr(workloads, "CITY_SESSIONS", 3)


@pytest.fixture
def in_process(tmp_path):
    """A rep runner that measures in this process instead of a fresh one."""
    counter = iter(range(1_000_000))

    def measure(workload: str, seed: int, mode: str) -> dict:
        scratch = tmp_path / f"rep-{next(counter)}"
        scratch.mkdir()
        return rep.measure(workload, seed, time.monotonic(), scratch, mode)

    return measure


def _bench(workload, trace, rep_runner, goldens=None):
    return run.bench(
        workload, workloads.WORKLOADS[workload].default_seed, 0.0, trace,
        run.load_config(), goldens or {}, rep=rep_runner, log=lambda *_: None,
    )


def test_config_names_every_workload_and_per_layer_metric():
    config = run.load_config()
    assert set(config["workloads"]) <= set(workloads.WORKLOADS)
    assert config["per_layer"] == layers.PER_LAYER
    assert set(config["end_to_end"]) == set(run.END_TO_END_FIELDS)
    assert all(bound <= 0.25 for bound, _ in config["bounds"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tiny, in_process, workload, trace):
    result = _bench(workload, trace, in_process)
    config = run.load_config()
    expected = config["per_layer"] if trace else config["end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    json.dumps(result)


def test_tampered_digest_counts_as_failed(tiny, in_process):
    goldens = {"city-serial": {"7": {"digest": "0" * 64, "readouts": {}}}}
    result = _bench("city-serial", False, in_process, goldens)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_sharded_is_checked_against_the_serial_digest(tiny, in_process):
    calls = []

    def tampered(workload, seed, mode):
        row = in_process(workload, seed, mode)
        calls.append(workload)
        if workload == "city-sharded":
            row["digest"] = "f" * 64
        return row

    result = _bench("city-sharded", False, tampered)
    assert "city-serial" in calls
    assert result["failed"] == result["attempted"] > 0


def _event(kind, proc, span_id, ts, name="x", parent=None):
    event = {"kind": kind, "proc": proc, "id": span_id, "name": name, "ts_s": ts}
    if parent is not None:
        event["parent"] = parent
    return event


def test_self_time_of_nested_and_cross_process_spans():
    # parent proc: root 0-10 > run 1-5 > pass 2-4, and run 6-7 (same ID
    # as the first run, as deterministic IDs repeat); worker proc: a span
    # with the root's ID that overlaps in time but is no child of it.
    events = [
        _event("span_begin", "parent", "r", 0.0, layers.ROOT_SPAN),
        _event("span_begin", "parent", "k", 1.0, "kernels.run", parent="r"),
        _event("span_begin", "worker", "r", 1.5, "shard.execute"),
        _event("span_begin", "parent", "p", 2.0, "kernels.frame_pass", parent="k"),
        _event("span_end", "parent", "p", 4.0, "kernels.frame_pass"),
        _event("span_end", "parent", "k", 5.0, "kernels.run"),
        _event("span_begin", "parent", "k", 6.0, "kernels.run", parent="r"),
        _event("span_end", "parent", "k", 7.0, "kernels.run"),
        _event("span_end", "worker", "r", 8.5, "shard.execute"),
        _event("span_end", "parent", "r", 10.0, layers.ROOT_SPAN),
    ]
    spans = {(s.proc, s.name, s.start): s for s in layers.pair_spans(events)}
    assert spans[("parent", layers.ROOT_SPAN, 0.0)].self_time == pytest.approx(5.0)
    assert spans[("parent", "kernels.run", 1.0)].self_time == pytest.approx(2.0)
    assert spans[("parent", "kernels.run", 6.0)].self_time == pytest.approx(1.0)
    assert spans[("worker", "shard.execute", 1.5)].parent is None

    metrics = layers.layer_metrics(events, {"kernels.fov.hit": 3, "kernels.fov.miss": 1})
    assert metrics["kernels.run_s"] == pytest.approx(5.0)
    assert metrics["kernels.run_self_s"] == pytest.approx(3.0)
    assert metrics["kernels.frame_pass_self_s"] == pytest.approx(2.0)
    assert metrics["shard.execute_s"] == pytest.approx(7.0)
    assert metrics["shard.busy_frac"] == pytest.approx(0.7)
    assert metrics["obs.coverage"] == pytest.approx(0.5)
    assert metrics["kernels.fov.hit_rate"] == pytest.approx(0.75)


def test_a_layer_nested_in_itself_is_counted_once():
    events = [
        _event("span_begin", "p", "a", 0.0, "bench.profile.sampler"),
        _event("span_begin", "p", "b", 1.0, "bench.profile.sampler", parent="a"),
        _event("span_end", "p", "b", 3.0, "bench.profile.sampler"),
        _event("span_end", "p", "a", 4.0, "bench.profile.sampler"),
    ]
    metrics = layers.layer_metrics(events, {})
    assert metrics["profile.sampler_s"] == pytest.approx(4.0)
    assert metrics["profile.sampler_self_s"] == pytest.approx(4.0)
    assert metrics["profile.sampler_calls"] == 2


def _record(workload, trace, metrics):
    result = {"metrics": {n: {"value": v, "unit": "s"} for n, v in metrics.items()}}
    return json.dumps({"workload": workload, "seed": 0, "trace": trace, "result": result})


def test_compare_names_the_layer_that_moved_most(tmp_path):
    before, after = tmp_path / "before.jsonl", tmp_path / "after.jsonl"
    before.write_text("\n".join([
        _record("city-sharded", 0, {"wall_s": 3.0}),
        _record("city-sharded", 1, {"profile.sampler_self_s": 2.0, "runner_self_s": 0.1}),
    ]) + "\n")
    after.write_text("\n".join([
        _record("city-sharded", 0, {"wall_s": 4.0}),
        _record("city-sharded", 1, {"profile.sampler_self_s": 2.9, "runner_self_s": 0.2}),
    ]) + "\n")
    lines: list[str] = []
    assert run.compare(before, after, run.load_config(), log=lines.append) == 1
    assert "layer that moved most: profile.sampler (+0.9000 s)" in lines
    assert any(line.startswith("REGRESSION on city-sharded: wall_s") for line in lines)
    assert run.compare(before, before, run.load_config(), log=lines.append) == 0
