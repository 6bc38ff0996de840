"""Tests for the sharded executor, its spill files and cache resume.

Bit-identity is asserted through ``pickle.dumps`` equality (dataclass
``==`` is false-negative on NaN fields); the determinism contract under
test is that any shard count, worker count, crash, or resume produces
byte-identical results to a flat serial run.
"""

import multiprocessing
import os
import pickle
import signal

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.obs import sinks as obs_sinks
from repro.obs import trace as obs_trace
from repro.sim.runner import BatchEngine, ResultCache, RunSpec, Sweep, run, spec_key
from repro.sim import shard as shard_module
from repro.sim.shard import ShardedExecutor, plan_shards


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
    return {
        spec_key(spec): pickle.dumps(result)
        for spec, result in executor.execute(specs)
    }


def _keyed(results) -> dict[str, bytes]:
    return {spec_key(s): pickle.dumps(r) for s, r in dict(results).items()}


def _interrupt_after(monkeypatch, runs: int) -> None:
    """Make the ``runs + 1``-th spec run in this process raise KeyboardInterrupt."""
    real_run = shard_module.run
    calls = []

    def interrupted(spec, engine):
        if len(calls) == runs:
            raise KeyboardInterrupt
        calls.append(spec)
        return real_run(spec, engine)

    monkeypatch.setattr(shard_module, "run", interrupted)


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


class TestBitParityAcrossShards:
    def test_inline_parity_at_every_shard_count(self, tmp_path):
        specs = _sweep_specs()
        reference = _reference(specs)
        for shards in (1, 4, 16):
            executor = ShardedExecutor(shards=shards, stream_dir=tmp_path)
            assert _collect(executor, specs) == reference
            assert executor.stats.executed == len(specs)
        # In-process execution never spills, stream directory or not.
        assert list(tmp_path.iterdir()) == []

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


class TestSpill:
    """Spill files only carry a pool worker's results to the parent."""

    def test_pool_spills_inside_stream_dir_and_removes_them(self, tmp_path):
        specs = _sweep_specs(seeds=(0,))
        executor = ShardedExecutor(shards=3, workers=2, stream_dir=tmp_path / "spill")
        frames = executor.execute(specs)
        got = dict([next(frames)])
        [spill_dir] = (tmp_path / "spill").iterdir()
        assert spill_dir.name.startswith("qvr-shards-")
        got.update(frames)
        assert _keyed(got) == _reference(specs)
        assert list((tmp_path / "spill").iterdir()) == []

    def test_abandoned_pool_run_removes_its_spills(self, tmp_path):
        specs = _sweep_specs(seeds=(0,))
        frames = ShardedExecutor(shards=3, workers=2, stream_dir=tmp_path).execute(specs)
        next(frames)
        frames.close()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("damage", ["torn", "garbage", "missing", "trailing"])
    def test_damaged_spill_raises_instead_of_truncating(self, tmp_path, damage):
        [shard] = plan_shards(_sweep_specs(seeds=(0,))[:2], 1)
        first, second = (pickle.dumps(run(spec)) for spec in shard.specs)
        payload = {
            "torn": first + second[: len(second) // 2],
            "garbage": first + b"\x80torn-frame-garbage",
            "missing": first,
            "trailing": first + second + pickle.dumps(1),
        }[damage]
        path = tmp_path / "shard-0000.results"
        path.write_bytes(payload)
        with pytest.raises(ReproError):
            list(shard_module._read_spill(path, shard))


class TestResume:
    """An interrupted batch resumes from the result cache, at any plan."""

    def test_completed_stream_is_not_reexecuted(self, tmp_path):
        specs = _sweep_specs(seeds=(0,))
        first = BatchEngine(shards=3, cache_dir=tmp_path)
        reference = _keyed(first.run_specs(specs))
        second = BatchEngine(jobs=2, shards=2, cache_dir=tmp_path)
        assert _keyed(second.run_specs(specs)) == reference
        assert second.stats.executed == 0
        assert second.stats.cache_hits == len(specs)
        assert second.stats.shards == 0

    def test_interrupt_then_resume_is_bit_identical(self, tmp_path, monkeypatch):
        specs = _sweep_specs(seeds=(0,))
        reference = _reference(specs)
        _interrupt_after(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            BatchEngine(shards=1, cache_dir=tmp_path).run_specs(specs)
        monkeypatch.undo()
        assert len(ResultCache(tmp_path)) == 2

        second = BatchEngine(shards=4, cache_dir=tmp_path)
        assert _keyed(second.run_specs(specs)) == reference
        assert second.stats.cache_hits == 2
        assert second.stats.executed == len(specs) - 2

    def test_interrupted_batch_with_a_stream_dir_resumes_from_the_cache(
        self, tmp_path, monkeypatch
    ):
        # Given both, the cache alone resumes the batch, and the stream
        # directory keeps nothing from either run.
        specs = _sweep_specs(seeds=(0,))
        stream, cache = tmp_path / "stream", tmp_path / "cache"
        reference = _reference(specs)
        _interrupt_after(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            BatchEngine(shards=2, stream_dir=stream, cache_dir=cache).run_specs(specs)
        monkeypatch.undo()
        assert list(stream.rglob("*")) == []

        engine = BatchEngine(shards=2, stream_dir=stream, cache_dir=cache)
        assert _keyed(engine.run_specs(specs)) == reference
        assert (engine.stats.executed, engine.stats.cache_hits) == (3, 3)
        assert list(stream.rglob("*")) == []


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the faults are patched into run() before the pool forks",
)
class TestPoolFaults:
    def test_killed_worker_mid_shard_reruns_its_shard_in_the_parent(
        self, tmp_path, monkeypatch
    ):
        specs = _sweep_specs(seeds=(0, 1))
        reference = _reference(specs)

        # Past a shard's first spec the shard has put a run into the
        # cache; there the first worker to win the O_EXCL marker
        # SIGKILLs itself.  Every finished put is logged with its pid.
        firsts = {shard.specs[0] for shard in plan_shards(specs, 2)}
        marker = tmp_path / "killed"
        puts = tmp_path / "puts"
        parent = os.getpid()
        real_run = shard_module.run
        real_put = ResultCache.put

        def logged_put(cache, spec, result):
            real_put(cache, spec, result)
            with puts.open("a") as handle:
                handle.write(f"{os.getpid()} {spec_key(spec)}\n")

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
        monkeypatch.setattr(ResultCache, "put", logged_put)
        trace_dir = tmp_path / "trace"
        cache = ResultCache(tmp_path / "cache")
        obs_trace.configure(trace_dir, process="parent")
        try:
            executor = ShardedExecutor(
                shards=2, workers=2, stream_dir=tmp_path / "stream", cache=cache
            )
            assert _collect(executor, specs) == reference
        finally:
            obs_trace.shutdown()
        assert executor.stats.requeues >= 1
        assert executor.stats.executed == len(specs)
        assert list((tmp_path / "stream").iterdir()) == []

        # The killed worker put the runs it finished before it died.
        pid = marker.read_text()
        by_key = {spec_key(spec): spec for spec in specs}
        finished = [
            by_key[key]
            for line in puts.read_text().splitlines()
            for put_pid, key in [line.split()]
            if put_pid == pid
        ]
        assert finished
        for spec in finished:
            assert pickle.dumps(cache.get(spec)) == reference[spec_key(spec)]

        # The SIGKILLed worker's per-process trace stream still merges:
        # the salvage read keeps the valid prefix (its completed spans)
        # and drops at most a torn final line.
        events, _ = obs_sinks.merge_trace_dir(trace_dir)
        dead = f"pid-{pid}"
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
        assert list(tmp_path.iterdir()) == []


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
        # A derived shard count on a pool spills inside the stream
        # directory, leaves nothing there, and resumes from the cache.
        specs = _sweep_specs(seeds=(0,))
        stream, cache = tmp_path / "stream", tmp_path / "cache"
        first = BatchEngine(jobs=2, stream_dir=stream, cache_dir=cache)
        reference = _keyed(first.run_specs(specs))
        assert (first.stats.shards, first.stats.workers) == (6, 2)
        assert first.stats.executed == first.stats.shard_specs == len(specs)
        assert list(stream.iterdir()) == []
        assert len(ResultCache(cache)) == len(specs)
        second = BatchEngine(jobs=2, stream_dir=stream, cache_dir=cache)
        assert _keyed(second.run_specs(specs)) == reference
        assert second.stats.cache_hits == len(specs)
        assert second.stats.executed == second.stats.shards == 0

    def test_resumed_stream_reports_nothing_executed(self, tmp_path):
        # Pool workers put their runs into the cache, so a streamed
        # rerun in this process executes nothing.
        specs = _sweep_specs(seeds=(0,))
        first = BatchEngine(jobs=2, shards=2, cache_dir=tmp_path)
        reference = {
            spec_key(s): pickle.dumps(r) for s, r in first.stream_specs(specs)
        }
        assert first.stats.executed == len(specs)
        second = BatchEngine(shards=3, cache_dir=tmp_path)
        got = {
            spec_key(s): pickle.dumps(r) for s, r in second.stream_specs(specs)
        }
        assert got == reference
        assert second.stats.executed == 0
        assert second.stats.cache_hits == len(specs)

    def test_stats_sum_over_every_batch(self, tmp_path):
        first_batch = _sweep_specs(seeds=(0,))
        second_batch = _sweep_specs(seeds=(1,)) + first_batch[:2]

        def run_both(engine):
            engine.run_specs(first_batch)
            engine.run_specs(second_batch)
            stats = engine.stats
            assert stats.requested == 14
            assert stats.requested == (
                stats.executed + stats.cache_hits + stats.deduplicated
            )
            return stats

        ran = run_both(BatchEngine(shards=2, cache_dir=tmp_path))
        assert (ran.executed, ran.cache_hits) == (12, 2)
        assert (ran.shards, ran.shard_specs) == (4, 12)
        rerun = run_both(BatchEngine(jobs=2, shards=3, cache_dir=tmp_path))
        assert (rerun.executed, rerun.cache_hits) == (0, 14)
        assert (rerun.shards, rerun.shard_specs) == (0, 0)

    def test_serial_engine_stays_off_disk(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        engine = BatchEngine(shards=3, stream_dir=tmp_path / "stream")
        assert len(engine.run_specs(_sweep_specs(seeds=(0,)))) == 6
        assert engine.stats.workers == 1
        assert list(tmp_path.iterdir()) == []

    def test_derived_shard_count_is_four_per_job(self):
        specs = _sweep_specs()
        engine = BatchEngine(jobs=2)
        engine.run_specs(specs)
        assert engine.stats.shards == 8
        assert engine.stats.workers == 2
        assert engine.stats.executed == len(specs)

    def test_resumable_stream_dir_through_engine(self, tmp_path):
        # The resume is bound to no shard plan: a rerun at another job
        # count (and so another derived shard count) executes nothing.
        specs = _sweep_specs(seeds=(0,))
        stream, cache = tmp_path / "stream", tmp_path / "cache"
        first = BatchEngine(stream_dir=stream, cache_dir=cache)
        reference = _keyed(first.run_specs(specs))
        second = BatchEngine(jobs=2, stream_dir=stream, cache_dir=cache)
        assert _keyed(second.run_specs(specs)) == reference
        assert second.stats.executed == 0
        assert second.stats.cache_hits == len(specs)
