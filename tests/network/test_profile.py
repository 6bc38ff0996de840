"""Tests for time-varying network profiles."""

import pickle

import pytest

from repro.errors import NetworkError
from repro.network.channel import NetworkChannel
from repro.network.conditions import LTE_4G, NetworkConditions, WIFI
from repro.network.profile import (
    AllocatedProfile,
    ConstantProfile,
    MarkovProfile,
    NetworkProfile,
    OffsetProfile,
    PROFILES,
    PiecewiseProfile,
    SwitchedProfile,
    TraceProfile,
    as_profile,
    allocated_conditions,
    profile_by_name,
)
from repro.sim.runner import RunSpec, spec_key
from repro.sim.systems import PlatformConfig


def _drop() -> PiecewiseProfile:
    return PiecewiseProfile.bandwidth_drop(WIFI, start_ms=500, duration_ms=1000, factor=0.2)


class TestConstantProfile:
    def test_time_invariant(self):
        sampler = ConstantProfile(WIFI).sampler(0)
        assert sampler.conditions_at(0.0) is WIFI
        assert sampler.conditions_at(1e6) is WIFI

    def test_name_and_initial(self):
        profile = ConstantProfile(LTE_4G)
        assert profile.name == "4G LTE"
        assert profile.sampler(0).conditions_at(0.0) is LTE_4G

    def test_hashable_and_stable(self):
        assert ConstantProfile(WIFI) == ConstantProfile(WIFI)
        assert hash(ConstantProfile(WIFI)) == hash(ConstantProfile(WIFI))


class TestPiecewiseProfile:
    def test_step_schedule(self):
        sampler = _drop().sampler(0)
        assert sampler.conditions_at(0.0).throughput_mbps == 200.0
        assert sampler.conditions_at(499.9).throughput_mbps == 200.0
        assert sampler.conditions_at(500.0).throughput_mbps == pytest.approx(40.0)
        assert sampler.conditions_at(1499.9).throughput_mbps == pytest.approx(40.0)
        assert sampler.conditions_at(1500.0).throughput_mbps == 200.0

    def test_boundaries(self):
        assert _drop().boundaries_ms == (500.0, 1500.0)

    def test_must_start_at_zero(self):
        with pytest.raises(NetworkError):
            PiecewiseProfile(segments=((10.0, WIFI),))

    def test_starts_must_increase(self):
        with pytest.raises(NetworkError):
            PiecewiseProfile(segments=((0.0, WIFI), (100.0, LTE_4G), (100.0, WIFI)))

    def test_empty_rejected(self):
        with pytest.raises(NetworkError):
            PiecewiseProfile(segments=())

    def test_bandwidth_drop_validation(self):
        with pytest.raises(NetworkError):
            PiecewiseProfile.bandwidth_drop(WIFI, start_ms=0, duration_ms=10, factor=0.5)
        with pytest.raises(NetworkError):
            PiecewiseProfile.bandwidth_drop(WIFI, start_ms=10, duration_ms=10, factor=1.5)

    def test_shared_scales_every_segment(self):
        """A flat fair share scales the nominal and the drop segment alike."""
        shared = AllocatedProfile(_drop(), ((0.0, 1.0 / (4 * 0.9)),), n_clients=4)
        sampler = shared.sampler(0)
        assert sampler.conditions_at(0.0).throughput_mbps == pytest.approx(
            200.0 / (4 * 0.9)
        )
        assert sampler.conditions_at(600.0).throughput_mbps == pytest.approx(
            40.0 / (4 * 0.9)
        )


class TestTraceProfile:
    def test_step_replay(self):
        trace = TraceProfile(
            base=WIFI, times_ms=(0.0, 100.0, 250.0), throughput_mbps=(150.0, 30.0, 90.0)
        )
        sampler = trace.sampler(0)
        assert sampler.conditions_at(0.0).throughput_mbps == 150.0
        assert sampler.conditions_at(99.0).throughput_mbps == 150.0
        assert sampler.conditions_at(100.0).throughput_mbps == 30.0
        assert sampler.conditions_at(1e5).throughput_mbps == 90.0

    def test_propagation_override(self):
        trace = TraceProfile(
            base=WIFI,
            times_ms=(0.0, 50.0),
            throughput_mbps=(100.0, 100.0),
            propagation_ms=(2.0, 20.0),
        )
        sampler = trace.sampler(0)
        assert sampler.conditions_at(0.0).propagation_ms == 2.0
        assert sampler.conditions_at(60.0).propagation_ms == 20.0

    def test_validation(self):
        with pytest.raises(NetworkError):
            TraceProfile(base=WIFI, times_ms=(), throughput_mbps=())
        with pytest.raises(NetworkError):
            TraceProfile(base=WIFI, times_ms=(0.0, 1.0), throughput_mbps=(10.0,))
        with pytest.raises(NetworkError):
            TraceProfile(base=WIFI, times_ms=(5.0,), throughput_mbps=(10.0,))
        with pytest.raises(NetworkError):
            TraceProfile(base=WIFI, times_ms=(0.0, 0.0), throughput_mbps=(10.0, 10.0))
        with pytest.raises(NetworkError):
            TraceProfile(base=WIFI, times_ms=(0.0,), throughput_mbps=(0.0,))

    def test_from_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time_ms,throughput_mbps\n0,120\n400,25\n900,180\n")
        trace = TraceProfile.from_csv(str(path))
        assert trace.times_ms == (0.0, 400.0, 900.0)
        assert trace.throughput_mbps == (120.0, 25.0, 180.0)
        assert trace.name == str(path)
        sampler = trace.sampler(0)
        assert sampler.conditions_at(500.0).throughput_mbps == 25.0

    def test_from_csv_with_propagation(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0,120,3\n400,25,40\n")
        trace = TraceProfile.from_csv(str(path), base=LTE_4G, label="field-trace")
        assert trace.propagation_ms == (3.0, 40.0)
        assert trace.name == "field-trace"
        assert trace.sampler(0).conditions_at(450.0).propagation_ms == 40.0

    def test_from_csv_rejects_short_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0\n")
        with pytest.raises(NetworkError):
            TraceProfile.from_csv(str(path))

    def test_shared_scales_samples(self):
        trace = TraceProfile(
            base=WIFI, times_ms=(0.0, 100.0), throughput_mbps=(100.0, 40.0)
        )
        sampler = AllocatedProfile(trace, ((0.0, 0.5),), n_clients=2).sampler(0)
        assert sampler.conditions_at(0.0).throughput_mbps == 50.0
        assert sampler.conditions_at(100.0).throughput_mbps == 20.0


class TestTraceSegmentMemo:
    """The per-process segment memo is invisible to pickles, keys and samples."""

    @staticmethod
    def _trace(label: str) -> TraceProfile:
        return TraceProfile(
            base=LTE_4G,
            times_ms=(0.0, 40.0, 95.0, 310.0),
            throughput_mbps=(42.0, 7.5, 63.0, 18.25),
            propagation_ms=(31.0, 44.0, 29.5, 52.0),
            label=label,
        )

    def test_pickle_and_spec_key_unchanged_by_sampling(self):
        profile = self._trace("memo-pickle")
        spec = RunSpec(
            system="qvr", app="GRID", platform=PlatformConfig(network=profile)
        )
        before = (pickle.dumps(profile), pickle.dumps(spec), spec_key(spec))
        profile.sampler(0).conditions_at(100.0)
        spec.platform.network.sampler(3).conditions_at(0.0)
        assert (pickle.dumps(profile), pickle.dumps(spec), spec_key(spec)) == before

    def test_samples_equal_an_unmemoised_build(self, monkeypatch):
        trace = self._trace("memo-samples")
        wrapped = [
            trace,
            AllocatedProfile(trace, ((0.0, 0.5), (120.0, 0.25)), n_clients=2),
            OffsetProfile(trace, 55.0),
            SwitchedProfile(((0.0, ConstantProfile(WIFI)), (80.0, trace))),
        ]
        times = [0.0, 39.9, 40.0, 94.0, 150.0, 309.0, 400.0, 1e5]

        def samples():
            return [
                [profile.sampler(0).conditions_at(t) for t in times]
                for profile in wrapped
            ]

        with monkeypatch.context() as patched:
            patched.setattr(TraceProfile, "_segments", TraceProfile._build_segments)
            expected = samples()
        assert samples() == expected  # fills the memo
        assert samples() == expected  # served from the memo


class TestMarkovProfile:
    def _profile(self) -> MarkovProfile:
        degraded = NetworkConditions(
            name="Wi-Fi", throughput_mbps=25.0, propagation_ms=2.0
        )
        return MarkovProfile(good=WIFI, degraded=degraded, p_degrade=0.3, p_recover=0.3)

    def test_deterministic_per_seed(self):
        profile = self._profile()
        times = [t * 125.0 for t in range(200)]
        a = [profile.sampler(9).conditions_at(t).throughput_mbps for t in times]
        b = [profile.sampler(9).conditions_at(t).throughput_mbps for t in times]
        assert a == b

    def test_different_seeds_differ(self):
        profile = self._profile()
        times = [t * 250.0 for t in range(400)]
        a = [profile.sampler(1).conditions_at(t).throughput_mbps for t in times]
        b = [profile.sampler(2).conditions_at(t).throughput_mbps for t in times]
        assert a != b

    def test_starts_good(self):
        assert self._profile().sampler(0).conditions_at(0.0) is WIFI

    def test_visits_both_states(self):
        profile = self._profile()
        sampler = profile.sampler(3)
        seen = {
            sampler.conditions_at(t * 250.0).throughput_mbps for t in range(400)
        }
        assert seen == {200.0, 25.0}

    def test_out_of_order_queries_consistent(self):
        profile = self._profile()
        forward = profile.sampler(5)
        values_forward = [forward.conditions_at(t * 250.0) for t in range(40)]
        backward = profile.sampler(5)
        values_backward = [backward.conditions_at(t * 250.0) for t in reversed(range(40))]
        assert values_forward == list(reversed(values_backward))

    def test_negative_time_rejected(self):
        with pytest.raises(NetworkError):
            self._profile().sampler(0).conditions_at(-1.0)

    def test_validation(self):
        with pytest.raises(NetworkError):
            MarkovProfile(good=WIFI, degraded=WIFI, p_degrade=1.5)
        with pytest.raises(NetworkError):
            MarkovProfile(good=WIFI, degraded=WIFI, dwell_ms=0.0)


class TestSharedConditions:
    """What one client of a shared link observes under its scheduled share."""

    def test_single_client_unchanged(self):
        assert allocated_conditions(WIFI, 1.0, 1) == WIFI

    def test_divides_throughput_and_grows_jitter(self):
        shared = allocated_conditions(WIFI, 1.0 / (4 * 0.9), 4)
        assert shared.throughput_mbps == pytest.approx(200.0 / 3.6)
        assert shared.jitter_fraction > WIFI.jitter_fraction
        assert shared.propagation_ms == WIFI.propagation_ms


class TestRegistryAndCoercion:
    def test_registry_has_dynamic_entries(self):
        assert {"wifi-drop", "4g-drop", "wifi-markov"} <= set(PROFILES)

    def test_profile_by_name_slug(self):
        """Preset slugs resolve through by_name — one registry, no drift."""
        assert profile_by_name("wifi") == ConstantProfile(WIFI)
        assert profile_by_name("lte") == ConstantProfile(LTE_4G)

    def test_profile_by_name_preset_label(self):
        assert profile_by_name("4G LTE") == ConstantProfile(LTE_4G)

    def test_profile_by_name_csv(self, tmp_path):
        path = tmp_path / "link.csv"
        path.write_text("0,80\n100,20\n")
        profile = profile_by_name(str(path))
        assert isinstance(profile, TraceProfile)

    def test_unknown_profile_lists_valid_names(self):
        with pytest.raises(NetworkError) as excinfo:
            profile_by_name("warp-link")
        message = str(excinfo.value)
        # Both the dynamic registry and the preset slugs are named.
        for expected in ("wifi-drop", "wifi-markov", "wifi", "4g", "5g"):
            assert expected in message

    def test_as_profile_passthrough_and_coercion(self):
        drop = _drop()
        assert as_profile(drop) is drop
        assert as_profile(WIFI) == ConstantProfile(WIFI)
        assert as_profile("5g") == profile_by_name("5g")
        with pytest.raises(NetworkError):
            as_profile(42)

    def test_profiles_pickle_round_trip(self):
        for profile in PROFILES.values():
            clone = pickle.loads(pickle.dumps(profile))
            assert clone == profile
            assert isinstance(clone, NetworkProfile)


class TestChannelWithProfiles:
    def test_channel_samples_profile_over_time(self):
        channel = NetworkChannel(_drop(), seed=0)
        nominal_before = channel.nominal_bytes_per_ms
        channel.advance_to(600.0)
        assert channel.nominal_bytes_per_ms == pytest.approx(nominal_before * 0.2)
        channel.advance_to(2000.0)
        assert channel.nominal_bytes_per_ms == pytest.approx(nominal_before)

    def test_clock_never_rewinds(self):
        channel = NetworkChannel(_drop(), seed=0)
        channel.advance_to(600.0)
        channel.advance_to(100.0)
        assert channel.now_ms == 600.0

    def test_static_conditions_still_accepted(self):
        channel = NetworkChannel(WIFI, seed=0)
        assert channel.conditions is WIFI
        channel.advance_to(1e6)
        assert channel.conditions is WIFI

    def test_transfers_slow_down_during_drop(self):
        channel = NetworkChannel(_drop(), seed=0)
        before = channel.expected_transfer_time_ms(1e6)
        channel.advance_to(600.0)
        during = channel.expected_transfer_time_ms(1e6)
        assert during > 4.0 * before
