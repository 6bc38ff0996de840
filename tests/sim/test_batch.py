"""Tests for the batched experiment engine (sweeps, cache, determinism).

Bit-identity is asserted through ``pickle.dumps`` equality: dataclass
``==`` is false-negative on NaN fields (non-foveated systems record
``e1_deg = NaN``), while the pickle byte stream captures exact float bit
patterns.
"""

import pickle
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.network.conditions import LTE_4G, WIFI
from repro.sim.runner import (
    BatchEngine,
    ResultCache,
    RunSpec,
    Sweep,
    run,
    run_batch,
    run_comparison,
    spec_key,
)
from repro.sim.systems import PlatformConfig


def _bit_identical(a, b) -> bool:
    return pickle.dumps(a) == pickle.dumps(b)


def _shared_specs(*clients, n_frames: int = 40):
    """The walker-planned specs of an event-free session of ``clients``."""
    from repro.sim.session import Session

    return Session(clients=clients).timeline(n_frames=n_frames).specs


def _small_sweep() -> Sweep:
    return Sweep(
        systems=("local", "qvr"),
        apps=("Doom3-L", "GRID"),
        n_frames=25,
        warmup_frames=5,
    )


class TestSweep:
    def test_grid_size(self):
        sweep = Sweep(
            systems=("local", "qvr"),
            apps=("Doom3-L",),
            platforms=(PlatformConfig(), PlatformConfig(network=LTE_4G)),
            seeds=(0, 1, 2),
            n_frames=40,
        )
        assert len(sweep) == 2 * 1 * 2 * 3
        specs = sweep.specs()
        assert len(specs) == len(sweep)
        assert len(set(specs)) == len(specs)

    def test_expansion_is_deterministic(self):
        assert _small_sweep().specs() == _small_sweep().specs()

    def test_default_warmup_clamps_to_short_runs(self):
        sweep = Sweep(systems=("local",), apps=("Doom3-L",), n_frames=10)
        assert all(spec.warmup_frames == 0 for spec in sweep.specs())
        longer = Sweep(systems=("local",), apps=("Doom3-L",), n_frames=100)
        assert all(spec.warmup_frames == 30 for spec in longer.specs())

    def test_empty_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            Sweep(systems=(), apps=("Doom3-L",))
        with pytest.raises(ConfigurationError):
            Sweep(systems=("local",), apps=("Doom3-L",), seeds=())

    def test_spec_indexes_into_grid(self):
        sweep = _small_sweep()
        specs = sweep.specs()
        assert sweep.spec("local", "Doom3-L", PlatformConfig()) in specs


class TestSweepProfiles:
    def test_profiles_axis_crosses_platforms(self):
        from repro.network.profile import ConstantProfile, PiecewiseProfile

        drop = PiecewiseProfile.bandwidth_drop(WIFI, 100.0, 200.0, 0.2)
        sweep = Sweep(
            systems=("local",),
            apps=("Doom3-L",),
            platforms=(PlatformConfig(), PlatformConfig(network=LTE_4G)),
            profiles=("wifi", drop),
            n_frames=20,
        )
        assert len(sweep) == 2 * 2
        networks = [spec.platform.network for spec in sweep.specs()]
        assert networks.count(ConstantProfile(WIFI)) == 2
        assert networks.count(drop) == 2

    def test_empty_profiles_rejected(self):
        with pytest.raises(ConfigurationError):
            Sweep(systems=("local",), apps=("Doom3-L",), profiles=())

    def test_no_profiles_keeps_platforms(self):
        sweep = _small_sweep()
        assert sweep.resolved_platforms() == sweep.platforms


class TestSpecKey:
    def test_stable_and_distinct(self):
        a = RunSpec(system="qvr", app="GRID", n_frames=40)
        assert spec_key(a) == spec_key(RunSpec(system="qvr", app="GRID", n_frames=40))
        assert spec_key(a) != spec_key(RunSpec(system="qvr", app="GRID", n_frames=41))
        assert spec_key(a) != spec_key(RunSpec(system="qvr", app="GRID", n_frames=40, seed=1))

    def test_platform_fields_reach_the_key(self):
        base = RunSpec(system="qvr", app="GRID")
        other = RunSpec(
            system="qvr", app="GRID", platform=PlatformConfig(network=LTE_4G)
        )
        assert spec_key(base) != spec_key(other)

    def test_sharing_fields_reach_the_key(self):
        (solo,) = _shared_specs("GRID")
        shared = _shared_specs(*("GRID",) * 4)[0]
        assert spec_key(solo) != spec_key(shared)
        assert spec_key(shared) != spec_key(replace(shared, shared_clients=3))

    def test_network_profile_reaches_the_key(self):
        from repro.network.profile import ConstantProfile, PiecewiseProfile

        base = RunSpec(system="qvr", app="GRID")
        drop = RunSpec(
            system="qvr", app="GRID",
            platform=PlatformConfig(
                network=PiecewiseProfile.bandwidth_drop(WIFI, 100.0, 200.0, 0.2)
            ),
        )
        wrapped = RunSpec(
            system="qvr", app="GRID",
            platform=PlatformConfig(network=ConstantProfile(WIFI)),
        )
        keys = {spec_key(base), spec_key(drop), spec_key(wrapped)}
        assert len(keys) == 3

    def test_schema_version_reaches_the_key(self, monkeypatch):
        """Bumping the spec schema must invalidate every existing key."""
        import repro.sim.runner as runner_module

        spec = RunSpec(system="qvr", app="GRID")
        old = spec_key(spec)
        monkeypatch.setattr(runner_module, "_SPEC_SCHEMA_VERSION", 99)
        assert spec_key(spec) != old

    def test_package_version_reaches_the_key(self, monkeypatch):
        """A new release must not silently reuse an old release's results."""
        import repro.sim.runner as runner_module

        spec = RunSpec(system="qvr", app="GRID")
        old = spec_key(spec)
        monkeypatch.setattr(runner_module, "__version__", "0.0.0-test")
        assert spec_key(spec) != old


class TestDeterminism:
    def test_serial_and_parallel_are_bit_identical(self):
        """The same sweep at --jobs 1 and --jobs 4 must agree bit-for-bit."""
        specs = _small_sweep().specs()
        serial = BatchEngine(jobs=1).run_specs(specs)
        parallel = BatchEngine(jobs=4).run_specs(specs)
        assert list(serial) == list(parallel)
        for spec in specs:
            assert _bit_identical(serial[spec], parallel[spec]), spec

    def test_batch_matches_direct_run(self):
        spec = RunSpec(system="ffr", app="HL2-L", n_frames=25, warmup_frames=5)
        batch = run_batch([spec])
        assert _bit_identical(batch[spec], run(spec))


class TestCache:
    def test_second_run_hits_cache_for_every_spec(self, tmp_path):
        specs = _small_sweep().specs()
        first = BatchEngine(cache_dir=tmp_path)
        cold = first.run_specs(specs)
        assert first.stats.executed == len(specs)
        assert first.stats.cache_hits == 0

        second = BatchEngine(cache_dir=tmp_path)
        warm = second.run_specs(specs)
        assert second.stats.executed == 0
        assert second.stats.cache_hits == len(specs)
        for spec in specs:
            assert _bit_identical(cold[spec], warm[spec])

    def test_cache_round_trip_preserves_bits(self, tmp_path):
        spec = RunSpec(system="qvr", app="Doom3-L", n_frames=25, warmup_frames=5)
        cache = ResultCache(tmp_path)
        result = run(spec)
        cache.put(spec, result)
        assert _bit_identical(cache.get(spec), result)
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = RunSpec(system="local", app="Doom3-L", n_frames=25, warmup_frames=5)
        cache = ResultCache(tmp_path)
        cache.put(spec, run(spec))
        cache.path_for(spec).write_bytes(b"not a pickle")
        assert cache.get(spec) is None

    def test_foreign_pickle_entry_is_a_miss(self, tmp_path):
        """A valid pickle that is not the payload dict must not crash."""
        spec = RunSpec(system="local", app="Doom3-L", n_frames=25, warmup_frames=5)
        cache = ResultCache(tmp_path)
        cache.path_for(spec).write_bytes(pickle.dumps(["not", "a", "payload"]))
        assert cache.get(spec) is None

    def test_results_stream_into_cache_as_they_complete(self, tmp_path):
        """A failing spec must not discard cache entries of finished runs."""
        specs = _small_sweep().specs()
        engine = BatchEngine(cache_dir=tmp_path)
        original_run = run

        def boom(spec):
            if spec == specs[-1]:
                raise RuntimeError("worker died")
            return original_run(spec)

        import repro.sim.shard as shard_module

        monkey = pytest.MonkeyPatch()
        monkey.setattr(shard_module, "run", boom)
        try:
            with pytest.raises(RuntimeError):
                engine.run_specs(specs)
        finally:
            monkey.undo()
        # Every spec that completed before the failure was persisted.
        assert len(ResultCache(tmp_path)) == len(specs) - 1

    def test_clear_evicts_every_entry(self, tmp_path):
        specs = _small_sweep().specs()
        engine = BatchEngine(cache_dir=tmp_path)
        engine.run_specs(specs)
        cache = ResultCache(tmp_path)
        assert len(cache) == len(specs)
        assert cache.clear() == len(specs)
        assert len(cache) == 0
        # A fresh engine re-executes everything after eviction.
        fresh = BatchEngine(cache_dir=tmp_path)
        fresh.run_specs(specs)
        assert fresh.stats.executed == len(specs)
        assert fresh.stats.cache_hits == 0

    def test_clear_on_empty_cache(self, tmp_path):
        assert ResultCache(tmp_path).clear() == 0

    def test_in_memory_memo_dedupes_across_batches(self):
        engine = BatchEngine()
        spec = RunSpec(system="local", app="Doom3-L", n_frames=25, warmup_frames=5)
        engine.run_specs([spec])
        engine.run_specs([spec])
        assert engine.stats.executed == 1
        assert engine.stats.cache_hits == 1

    def test_duplicate_specs_execute_once(self):
        engine = BatchEngine()
        spec = RunSpec(system="local", app="Doom3-L", n_frames=25, warmup_frames=5)
        batch = engine.run_specs([spec, spec, spec])
        assert engine.stats.requested == 3
        assert engine.stats.unique == 1
        assert engine.stats.deduplicated == 2
        assert engine.stats.executed == 1
        assert len(batch) == 1


class TestEngineValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            BatchEngine(jobs=0)

    def test_comparison_matches_run_comparison(self):
        engine = BatchEngine()
        via_engine = engine.comparison("Doom3-L", systems=("local",), n_frames=20)
        direct = run_comparison("Doom3-L", systems=("local",), n_frames=20)
        assert _bit_identical(via_engine["local"], direct["local"])


class TestRunSpecValidation:
    def test_warmup_swallowing_run_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(system="qvr", app="GRID", n_frames=30, warmup_frames=30)
        with pytest.raises(ConfigurationError):
            RunSpec(system="qvr", app="GRID", n_frames=20, warmup_frames=30)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(system="qvr", app="GRID", warmup_frames=-1)

    def test_shared_clients_validated(self):
        with pytest.raises(ConfigurationError):
            RunSpec(system="qvr", app="GRID", shared_clients=0)
        # Sharing is always scheduled: no schedule, no shared spec.
        with pytest.raises(ConfigurationError, match="server_allocation"):
            RunSpec(system="qvr", app="GRID", shared_clients=4)

    def test_shared_platform_degrades_with_clients(self):
        solo = RunSpec(system="qvr", app="GRID")
        assert solo.effective_platform() == solo.platform
        observed = {}
        for n in (2, 4):
            degraded = _shared_specs(*("GRID",) * n)[0].effective_platform()
            observed[n] = (
                degraded.network.initial_conditions.throughput_mbps,
                degraded.server_schedule[0][1],
            )
        assert observed[2][0] < solo.platform.network.throughput_mbps
        assert observed[2][1] < 1.0
        assert observed[4][0] < observed[2][0]
        assert observed[4][1] < observed[2][1]

    def test_private_downlink_shares_only_the_server(self):
        from repro.sim.session import ClientSpec

        _, spec = _shared_specs("GRID", ClientSpec("GRID", profile="4g"))
        assert not spec.shared_downlink
        derived = spec.effective_platform()
        assert derived.network == spec.platform.network
        assert derived.server_schedule[0][1] < 1.0

    def test_shared_downlink_reaches_the_key(self):
        shared = _shared_specs(*("GRID",) * 4)[0]
        private = replace(shared, shared_downlink=False, downlink_allocation=None)
        assert spec_key(shared) != spec_key(private)
