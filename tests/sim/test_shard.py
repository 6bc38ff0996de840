"""Tests for the sharded executor and its result stream.

Bit-identity is asserted through ``pickle.dumps`` equality (dataclass
``==`` is false-negative on NaN fields); the determinism contract under
test is that any shard count, worker count, crash, or resume produces
byte-identical results to a flat serial run.
"""

import hashlib
import multiprocessing
import os
import pickle
import signal
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.network.conditions import WIFI
from repro.obs import sinks as obs_sinks
from repro.obs import trace as obs_trace
from repro.sim.runner import BatchEngine, RunSpec, Sweep, run, spec_key, spec_keys
from repro.sim import shard as shard_module
from repro.sim.shard import (
    _plan_digest,
    ResultStream,
    ShardedExecutor,
    plan_shards,
)
from repro.sim.systems import PlatformConfig


def _sweep_specs(seeds=(0, 1, 2)) -> list[RunSpec]:
    return Sweep(
        systems=("local", "remote", "static"),
        apps=("Doom3-L", "GRID"),
        seeds=seeds,
        n_frames=25,
        warmup_frames=5,
    ).specs()


def _reference(specs) -> dict[str, bytes]:
    return {spec_key(spec): pickle.dumps(run(spec)) for spec in specs}


def _collect(executor: ShardedExecutor, specs) -> dict[str, bytes]:
    try:
        return {
            spec_key(spec): pickle.dumps(result)
            for spec, result in executor.execute(specs)
        }
    finally:
        executor.cleanup()


class TestPlanShards:
    def test_contiguous_and_balanced(self):
        specs = _sweep_specs()
        planned = plan_shards(specs, 4)
        assert len(planned) == 4
        sizes = [len(s) for s in planned]
        assert max(sizes) - min(sizes) <= 1
        flattened = [spec for s in planned for spec in s.specs]
        assert flattened == list(specs)
        assert [s.index for s in planned] == [0, 1, 2, 3]

    def test_more_shards_than_specs_degrades_to_singletons(self):
        specs = _sweep_specs(seeds=(0,))[:3]
        planned = plan_shards(specs, 99)
        assert len(planned) == 3
        assert all(len(s) == 1 for s in planned)

    def test_empty_specs_plan_nothing(self):
        assert plan_shards([], 8) == ()

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_shards(_sweep_specs(), 0)


class TestPlanDigest:
    """The digest canonicalises shared sub-objects once, by identity."""

    @staticmethod
    def _per_spec_digest(specs, shards):
        hasher = hashlib.sha256()
        hasher.update(str(shards).encode())
        for spec in specs:
            hasher.update(spec_key(spec).encode())
        return hasher.hexdigest()

    def test_memoised_digest_equals_the_per_spec_keys(self):
        positive = PlatformConfig(network=replace(WIFI, propagation_ms=0.0))
        negative = PlatformConfig(network=replace(WIFI, propagation_ms=-0.0))
        # Equal by dataclass equality, distinct by float.hex.
        assert positive == negative
        specs = list(_sweep_specs())
        specs += [
            RunSpec(system="qvr", app="GRID", platform=positive),
            RunSpec(system="qvr", app="GRID", platform=negative),
            RunSpec(system="qvr", app="GRID", platform=positive, seed=1),
        ]
        keys = spec_keys(specs)
        assert keys == [spec_key(spec) for spec in specs]
        assert keys[-3] != keys[-2]
        assert _plan_digest(specs, 4) == self._per_spec_digest(specs, 4)


class TestBitParityAcrossShards:
    def test_inline_parity_at_every_shard_count(self, tmp_path):
        specs = _sweep_specs()
        reference = _reference(specs)
        for shards in (1, 4, 16):
            # In-process, both live (no stream) and through the spill files.
            assert _collect(ShardedExecutor(shards=shards), specs) == reference
            spilled = ShardedExecutor(shards=shards, stream_dir=tmp_path / str(shards))
            assert _collect(spilled, specs) == reference
            assert spilled.stats.executed == len(specs)

    def test_process_pool_parity_with_stealing(self):
        specs = _sweep_specs()
        reference = _reference(specs)
        executor = ShardedExecutor(shards=7, workers=2)
        assert _collect(executor, specs) == reference
        assert executor.stats.workers == 2
        assert executor.stats.executed == len(specs)

    def test_single_spec_sweep(self):
        specs = _sweep_specs(seeds=(0,))[:1]
        reference = _reference(specs)
        executor = ShardedExecutor(shards=8, workers=4)
        assert _collect(executor, specs) == reference
        assert executor.stats.shards == 1

    def test_empty_sweep_yields_nothing(self):
        executor = ShardedExecutor(shards=4)
        assert _collect(executor, []) == {}
        assert executor.stats.shards == 0


class TestExecutorValidation:
    def test_nonpositive_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedExecutor(shards=0)

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedExecutor(workers=0)


class TestResultStream:
    def test_digest_directory_binds_stream_to_one_plan(self, tmp_path):
        # Each plan streams to the subdirectory named by its digest, so a
        # second plan in the same directory never touches the first's.
        specs = _sweep_specs(seeds=(0,))
        other = _sweep_specs(seeds=(1,))
        first = ShardedExecutor(shards=2, stream_dir=tmp_path)
        reference = _collect(first, specs)
        second = ShardedExecutor(shards=2, stream_dir=tmp_path)
        assert _collect(second, other) == _reference(other)
        assert second.stats.executed == len(other)
        for executor, plan in ((first, specs), (second, other)):
            directory = tmp_path / _plan_digest(plan, 2)
            assert executor.stream.directory == directory
            assert sorted(path.name for path in directory.iterdir()) == [
                "shard-0000.results", "shard-0001.results",
            ]
        # The same specs in another shard plan stream elsewhere.
        assert _plan_digest(specs, 3) != _plan_digest(specs, 2)
        # The second plan left the first one's stream resumable.
        resumed = ShardedExecutor(shards=2, stream_dir=tmp_path)
        assert _collect(resumed, specs) == reference
        assert resumed.stats.executed == 0
        assert resumed.stats.resumed == len(specs)
        assert resumed.stats.resumed_shards == 2

    def test_torn_tail_is_discarded(self, tmp_path):
        specs = _sweep_specs(seeds=(0,))[:2]
        stream = ResultStream(tmp_path)
        path = stream.results_path(0)
        with path.open("wb") as handle:
            pickle.dump((specs[0], run(specs[0])), handle)
            handle.write(b"\x80torn-frame-garbage")
        frames = list(stream.iter_shard(0))
        assert len(frames) == 1
        assert pickle.dumps(frames[0][1]) == pickle.dumps(run(specs[0]))


class TestResume:
    def test_completed_stream_is_not_reexecuted(self, tmp_path):
        specs = _sweep_specs(seeds=(0,))
        first = ShardedExecutor(shards=3, stream_dir=tmp_path)
        reference = _collect(first, specs)
        second = ShardedExecutor(shards=3, stream_dir=tmp_path)
        assert _collect(second, specs) == reference
        assert second.stats.executed == 0
        assert second.stats.resumed == len(specs)
        assert second.stats.resumed_shards == 3

    def test_interrupt_then_resume_is_bit_identical(self, tmp_path, monkeypatch):
        specs = _sweep_specs(seeds=(0,))
        reference = _reference(specs)
        real_run = shard_module.run
        calls = []

        def interrupted(spec, engine):
            if len(calls) == 2:
                raise KeyboardInterrupt
            calls.append(spec)
            return real_run(spec, engine)

        monkeypatch.setattr(shard_module, "run", interrupted)
        first = ShardedExecutor(shards=1, stream_dir=tmp_path)
        with pytest.raises(KeyboardInterrupt):
            list(first.execute(specs))
        monkeypatch.setattr(shard_module, "run", real_run)

        stream = first.stream
        assert stream.part_path(0).exists()
        assert not stream.is_complete(0)
        # A crash can also tear the tail of the spill file mid-write; the
        # salvage scan must drop exactly the torn frame and keep the prefix.
        with stream.part_path(0).open("ab") as handle:
            handle.write(b"\x80torn")

        second = ShardedExecutor(shards=1, stream_dir=tmp_path)
        assert _collect(second, specs) == reference
        assert second.stats.salvaged == second.stats.resumed == 2
        assert second.stats.executed == len(specs) - 2


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the faults are patched into run() before the pool forks",
)
class TestPoolFaults:
    def test_killed_worker_mid_shard_finishes_from_salvaged_prefix(
        self, tmp_path, monkeypatch
    ):
        specs = _sweep_specs(seeds=(0, 1))
        reference = _reference(specs)
        clean = ShardedExecutor(shards=2, workers=2, stream_dir=tmp_path / "clean")
        _collect(clean, specs)

        # Past a shard's first spec the shard has spilled a frame; there
        # the first worker to win the O_EXCL marker SIGKILLs itself.
        firsts = {shard.specs[0] for shard in plan_shards(specs, 2)}
        marker = tmp_path / "killed"
        parent = os.getpid()
        real_run = shard_module.run

        def run_or_die(spec, engine):
            if os.getpid() != parent and spec not in firsts:
                try:
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    pass
                else:
                    os.write(fd, str(os.getpid()).encode())
                    os.close(fd)
                    os.kill(os.getpid(), signal.SIGKILL)
            return real_run(spec, engine)

        monkeypatch.setattr(shard_module, "run", run_or_die)
        trace_dir = tmp_path / "trace"
        obs_trace.configure(trace_dir, process="parent")
        try:
            executor = ShardedExecutor(
                shards=2, workers=2, stream_dir=tmp_path / "stream"
            )
            assert _collect(executor, specs) == reference
        finally:
            obs_trace.shutdown()
        for index in range(2):
            assert (
                executor.stream.results_path(index).read_bytes()
                == clean.stream.results_path(index).read_bytes()
            )
        assert executor.stats.requeues >= 1
        assert executor.stats.salvaged >= 1

        # The SIGKILLed worker's per-process trace stream still merges:
        # the salvage read keeps the valid prefix (its completed spans)
        # and drops at most a torn final line.
        events, _ = obs_sinks.merge_trace_dir(trace_dir)
        dead = f"pid-{marker.read_text()}"
        assert "shard.execute" in {e["name"] for e in events if e["proc"] == dead}
        assert "shard.requeue" in {e["name"] for e in events if e["proc"] == "parent"}
        # Span pairing tolerates the begin the kill left unmatched.
        for begin, end in obs_trace.spans(events):
            assert end["ts_s"] >= begin["ts_s"]

    def test_worker_error_fails_the_sweep(self, tmp_path, monkeypatch):
        def fail(spec, engine):
            raise ValueError("injected worker fault")

        monkeypatch.setattr(shard_module, "run", fail)
        executor = ShardedExecutor(shards=2, workers=2, stream_dir=tmp_path)
        with pytest.raises(ValueError, match="injected worker fault"):
            _collect(executor, _sweep_specs(seeds=(0,)))
        assert executor.stats.requeues == 0
        assert executor.stream.completed_shards() == []


class TestBatchEngineIntegration:
    def test_sharded_engine_matches_flat_engine(self):
        specs = _sweep_specs(seeds=(0,))
        flat = BatchEngine(jobs=1)
        reference = {
            spec_key(s): pickle.dumps(r) for s, r in flat.run_specs(specs).items()
        }
        for shards in (1, 4, 16):
            engine = BatchEngine(jobs=2, shards=shards)
            got = {
                spec_key(s): pickle.dumps(r) for s, r in engine.run_specs(specs).items()
            }
            assert got == reference
            assert engine.stats.shard_specs == len(specs)

    def test_stream_specs_is_bit_identical_and_unmemoized(self):
        specs = _sweep_specs(seeds=(0,))
        flat = BatchEngine(jobs=1)
        reference = {
            spec_key(s): pickle.dumps(r) for s, r in flat.run_specs(specs).items()
        }
        engine = BatchEngine(jobs=1, shards=4)
        got = {
            spec_key(s): pickle.dumps(r) for s, r in engine.stream_specs(specs)
        }
        assert got == reference
        # The streaming path must not retain results in process memory.
        assert engine._memo == {}

    def test_stream_specs_replays_from_cache(self, tmp_path):
        specs = _sweep_specs(seeds=(0,))
        first = BatchEngine(jobs=1, cache_dir=tmp_path)
        reference = {
            spec_key(s): pickle.dumps(r) for s, r in first.stream_specs(specs)
        }
        second = BatchEngine(jobs=1, cache_dir=tmp_path, shards=2)
        got = {
            spec_key(s): pickle.dumps(r) for s, r in second.stream_specs(specs)
        }
        assert got == reference
        assert second.stats.cache_hits == len(specs)
        assert second.stats.executed == 0

    def test_engine_validates_shard_options(self):
        with pytest.raises(ConfigurationError):
            BatchEngine(shards=0)
        with pytest.raises(ConfigurationError):
            BatchEngine(shards=2, shard_mode="cluster")
        with pytest.raises(ConfigurationError):
            BatchEngine(shards=2, shard_mode="subprocess")

    def test_stream_dir_without_shards_spills_and_resumes(self, tmp_path):
        specs = _sweep_specs(seeds=(0,))
        first = BatchEngine(jobs=1, stream_dir=tmp_path)
        reference = {
            spec_key(s): pickle.dumps(r) for s, r in first.run_specs(specs).items()
        }
        [stream_dir] = tmp_path.iterdir()
        stream = ResultStream(stream_dir)
        assert stream.completed_shards() == list(range(first.stats.shards))
        assert first.stats.shards == 4
        assert sum(
            len(list(stream.iter_shard(index))) for index in range(4)
        ) == first.stats.shard_specs == len(specs)
        second = BatchEngine(jobs=1, stream_dir=tmp_path)
        got = {
            spec_key(s): pickle.dumps(r) for s, r in second.run_specs(specs).items()
        }
        assert got == reference
        assert second.stats.resumed_shards == 4
        assert second.stats.resumed == len(specs)
        assert second.stats.executed == 0

    def test_resumed_stream_reports_nothing_executed(self, tmp_path):
        specs = _sweep_specs(seeds=(0,))
        first = BatchEngine(shards=2, stream_dir=tmp_path)
        reference = {
            spec_key(s): pickle.dumps(r) for s, r in first.stream_specs(specs)
        }
        assert first.stats.executed == len(specs)
        second = BatchEngine(shards=2, stream_dir=tmp_path)
        got = {
            spec_key(s): pickle.dumps(r) for s, r in second.stream_specs(specs)
        }
        assert got == reference
        # Frames read back from the stream were executed by the first run.
        assert second.stats.executed == 0
        assert second.stats.resumed == len(specs)
        assert second.stats.resumed_shards == 2

    def test_stats_sum_over_every_batch(self, tmp_path):
        first_batch = _sweep_specs(seeds=(0,))
        second_batch = _sweep_specs(seeds=(1,)) + first_batch[:2]

        def run_both(engine):
            engine.run_specs(first_batch)
            engine.run_specs(second_batch)
            stats = engine.stats
            assert stats.requested == 14 and stats.cache_hits == 2
            assert stats.shards == 4 and stats.shard_specs == 12
            assert stats.requested == (
                stats.executed + stats.resumed + stats.cache_hits + stats.deduplicated
            )
            return stats

        ran = run_both(BatchEngine(shards=2, stream_dir=tmp_path))
        assert (ran.executed, ran.resumed, ran.resumed_shards) == (12, 0, 0)
        rerun = run_both(BatchEngine(shards=2, stream_dir=tmp_path))
        assert (rerun.executed, rerun.resumed, rerun.resumed_shards) == (0, 12, 4)

    def test_serial_engine_stays_off_disk(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        engine = BatchEngine()
        assert len(engine.run_specs(_sweep_specs(seeds=(0,)))) == 6
        assert engine.stats.workers == 1
        assert engine.stats.resumed == 0
        assert list(tmp_path.iterdir()) == []

    def test_derived_shard_count_is_four_per_job(self):
        specs = _sweep_specs()
        engine = BatchEngine(jobs=2)
        engine.run_specs(specs)
        assert engine.stats.shards == 8
        assert engine.stats.workers == 2
        assert engine.stats.executed == len(specs)

    def test_resumable_stream_dir_through_engine(self, tmp_path):
        specs = _sweep_specs(seeds=(0,))
        first = BatchEngine(shards=3, stream_dir=tmp_path)
        reference = {
            spec_key(s): pickle.dumps(r) for s, r in first.run_specs(specs).items()
        }
        second = BatchEngine(shards=3, stream_dir=tmp_path)
        got = {
            spec_key(s): pickle.dumps(r) for s, r in second.run_specs(specs).items()
        }
        assert got == reference
        assert second.stats.executed == 0
        assert second.stats.resumed_shards == 3
