"""Acceptance tests: dynamic environments through the whole sim stack.

A run under a piecewise bandwidth-drop profile must be deterministic per
seed, bit-identical through the batch cache, and show the paper's
predicted adaptation: eccentricity grows and the remote share shrinks
during the degraded window, then both recover.
"""

import pickle

import numpy as np

from repro.network.conditions import NetworkConditions, WIFI
from repro.network.profile import (
    AllocatedProfile,
    ConstantProfile,
    MarkovProfile,
    PiecewiseProfile,
)
from repro.sim.runner import BatchEngine, RunSpec, run
from repro.sim.systems import PlatformConfig


def _bit_identical(a, b) -> bool:
    return pickle.dumps(a) == pickle.dumps(b)


def _drop_profile() -> PiecewiseProfile:
    return PiecewiseProfile.bandwidth_drop(
        WIFI, start_ms=500.0, duration_ms=800.0, factor=0.15
    )


def _drop_spec(seed: int = 0, n_frames: int = 180) -> RunSpec:
    return RunSpec(
        system="qvr",
        app="GRID",
        platform=PlatformConfig(network=_drop_profile()),
        n_frames=n_frames,
        seed=seed,
        warmup_frames=0,
    )


class TestDeterminism:
    def test_deterministic_per_seed(self):
        assert _bit_identical(run(_drop_spec(seed=3)), run(_drop_spec(seed=3)))

    def test_seeds_differ(self):
        assert not _bit_identical(run(_drop_spec(seed=1)), run(_drop_spec(seed=2)))

    def test_bit_identical_through_batch_cache(self, tmp_path):
        spec = _drop_spec()
        cold_engine = BatchEngine(cache_dir=tmp_path)
        cold = cold_engine.run_specs([spec])[spec]
        warm_engine = BatchEngine(cache_dir=tmp_path)
        warm = warm_engine.run_specs([spec])[spec]
        assert warm_engine.stats.cache_hits == 1
        assert warm_engine.stats.executed == 0
        assert _bit_identical(cold, warm)

    def test_markov_profile_deterministic_per_seed(self):
        profile = MarkovProfile(
            good=WIFI,
            degraded=NetworkConditions(
                name="Wi-Fi", throughput_mbps=30.0, propagation_ms=2.0
            ),
            p_degrade=0.2,
            p_recover=0.3,
        )
        spec = RunSpec(
            system="qvr",
            app="Doom3-L",
            platform=PlatformConfig(network=profile),
            n_frames=80,
            seed=5,
            warmup_frames=0,
        )
        assert _bit_identical(run(spec), run(spec))


class TestConstantEquivalence:
    def test_constant_profile_matches_static_conditions(self):
        """Wrapping a preset in ConstantProfile must not change the physics."""
        static = RunSpec(
            system="qvr", app="GRID", platform=PlatformConfig(network=WIFI),
            n_frames=60, warmup_frames=0,
        )
        wrapped = RunSpec(
            system="qvr", app="GRID",
            platform=PlatformConfig(network=ConstantProfile(WIFI)),
            n_frames=60, warmup_frames=0,
        )
        assert _bit_identical(run(static), run(wrapped))

    def test_all_systems_unchanged_under_constant_profile(self):
        for system in ("local", "remote", "static", "qvr"):
            a = run(RunSpec(system=system, app="Doom3-L", n_frames=40, warmup_frames=0))
            b = run(
                RunSpec(
                    system=system, app="Doom3-L",
                    platform=PlatformConfig(network=ConstantProfile(WIFI)),
                    n_frames=40, warmup_frames=0,
                )
            )
            assert _bit_identical(a, b), system


class TestAdaptation:
    def _windows(self, result):
        start, end = _drop_profile().boundaries_ms
        before = [r for r in result.records if r.display_ms < start]
        during = [r for r in result.records if start <= r.display_ms < end]
        after = [r for r in result.records if r.display_ms >= end]
        return before, during, after

    def test_eccentricity_grows_during_drop(self):
        result = run(_drop_spec())
        before, during, after = self._windows(result)
        assert len(before) > 5 and len(during) > 5 and len(after) > 5
        e1_before = float(np.mean([r.e1_deg for r in before]))
        e1_during = float(np.mean([r.e1_deg for r in during]))
        e1_after = float(np.mean([r.e1_deg for r in after]))
        assert e1_during > 1.3 * e1_before
        assert e1_after < e1_during

    def test_remote_share_shrinks_during_drop(self):
        result = run(_drop_spec())
        before, during, after = self._windows(result)
        bytes_before = float(np.mean([r.transmitted_bytes for r in before]))
        bytes_during = float(np.mean([r.transmitted_bytes for r in during]))
        bytes_after = float(np.mean([r.transmitted_bytes for r in after]))
        assert bytes_during < 0.8 * bytes_before
        assert bytes_after > bytes_during

    def test_software_controller_also_reacts(self):
        """SW-QVR adapts from measured latencies, one frame behind."""
        spec = RunSpec(
            system="sw-qvr",
            app="GRID",
            platform=PlatformConfig(network=_drop_profile()),
            n_frames=180,
            warmup_frames=0,
        )
        result = run(spec)
        before, during, _ = self._windows(result)
        e1_before = float(np.mean([r.e1_deg for r in before]))
        e1_during = float(np.mean([r.e1_deg for r in during]))
        assert e1_during > e1_before

    def test_fps_degrades_then_recovers(self):
        result = run(_drop_spec())
        before, during, after = self._windows(result)

        def fps(records):
            span = records[-1].display_ms - records[0].display_ms
            return 1000.0 * (len(records) - 1) / span

        assert fps(during) < fps(before)
        assert fps(after) > fps(during)


class TestSharedDynamicProfiles:
    def test_shared_clients_degrade_a_profile_platform(self):
        from repro.sim.session import Session

        solo = _drop_spec()
        session = Session(
            clients=("GRID",) * 4,
            platform=PlatformConfig(network=_drop_profile()),
        )
        shared = session.timeline(n_frames=180, warmup_frames=0).specs[0]
        degraded = shared.effective_platform()
        assert isinstance(degraded.network, AllocatedProfile)
        assert degraded.network.base == _drop_profile()
        assert (
            degraded.network.initial_conditions.throughput_mbps
            < solo.platform.network.initial_conditions.throughput_mbps
        )