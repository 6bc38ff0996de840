"""Tests for the network channel and condition presets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.network.channel import NetworkChannel, snr_efficiency
from repro.network.conditions import ALL_CONDITIONS, EARLY_5G, LTE_4G, WIFI, by_name


class TestConditions:
    def test_table2_throughputs(self):
        assert WIFI.throughput_mbps == 200.0
        assert LTE_4G.throughput_mbps == 100.0
        assert EARLY_5G.throughput_mbps == 500.0

    def test_default_snr_is_20db(self):
        for cond in ALL_CONDITIONS:
            assert cond.snr_db == 20.0

    def test_by_name(self):
        assert by_name("wi-fi") is WIFI
        assert by_name("4G LTE") is LTE_4G
        with pytest.raises(NetworkError):
            by_name("6G")

    def test_by_name_slugs(self):
        assert by_name("wifi") is WIFI
        assert by_name("4g") is LTE_4G
        assert by_name("lte") is LTE_4G
        assert by_name("5g") is EARLY_5G
        assert by_name(" 5G ") is EARLY_5G

    def test_by_name_error_lists_valid_names(self):
        with pytest.raises(NetworkError) as excinfo:
            by_name("6G")
        message = str(excinfo.value)
        for expected in ("Wi-Fi", "4G LTE", "Early 5G", "wifi", "4g", "5g"):
            assert expected in message

    def test_invalid_conditions(self):
        from repro.network.conditions import NetworkConditions

        with pytest.raises(NetworkError):
            NetworkConditions("x", throughput_mbps=0, propagation_ms=1)
        with pytest.raises(NetworkError):
            NetworkConditions("x", throughput_mbps=10, propagation_ms=-1)

    def test_invalid_snr_rejected(self):
        from repro.network.conditions import NetworkConditions

        with pytest.raises(NetworkError):
            NetworkConditions("x", throughput_mbps=10, propagation_ms=1, snr_db=0.0)
        with pytest.raises(NetworkError):
            NetworkConditions("x", throughput_mbps=10, propagation_ms=1, snr_db=-5.0)

    def test_positive_snr_accepted(self):
        from repro.network.conditions import NetworkConditions

        conditions = NetworkConditions(
            "x", throughput_mbps=10, propagation_ms=1, snr_db=3.0
        )
        assert conditions.snr_db == 3.0


class TestSNREfficiency:
    def test_20db_value(self):
        assert snr_efficiency(20.0) == pytest.approx(0.832, abs=0.01)

    def test_monotone_in_snr(self):
        values = [snr_efficiency(s) for s in (0, 10, 20, 23)]
        assert values == sorted(values)

    def test_capped_at_one(self):
        assert snr_efficiency(100.0) == 1.0


class TestChannel:
    def test_nominal_rate(self):
        channel = NetworkChannel(WIFI, seed=0)
        assert channel.nominal_bytes_per_ms == pytest.approx(200e6 / 8 / 1000)

    def test_effective_below_nominal(self):
        channel = NetworkChannel(WIFI, seed=0)
        assert channel.mean_effective_bytes_per_ms < channel.nominal_bytes_per_ms

    def test_expected_transfer_monotone_in_payload(self):
        channel = NetworkChannel(WIFI, seed=0)
        assert channel.expected_transfer_time_ms(2e6) > channel.expected_transfer_time_ms(1e6)

    def test_expected_transfer_faster_on_5g(self):
        wifi = NetworkChannel(WIFI, seed=0)
        fiveg = NetworkChannel(EARLY_5G, seed=0)
        assert fiveg.expected_transfer_time_ms(1e6) < wifi.expected_transfer_time_ms(1e6)

    def test_transfer_records_history(self):
        channel = NetworkChannel(WIFI, seed=0)
        channel.transfer_time_ms(1e5)
        channel.transfer_time_ms(2e5)
        assert len(channel.history) == 2
        assert channel.history[1].payload_bytes == 2e5

    def test_zero_payload_free(self):
        channel = NetworkChannel(WIFI, seed=0)
        assert channel.transfer_time_ms(0.0) == 0.0
        assert len(channel.history) == 0

    def test_negative_payload_rejected(self):
        with pytest.raises(NetworkError):
            NetworkChannel(WIFI).transfer_time_ms(-1)

    def test_deterministic_for_seed(self):
        a = NetworkChannel(WIFI, seed=11)
        b = NetworkChannel(WIFI, seed=11)
        times_a = [a.transfer_time_ms(5e5) for _ in range(10)]
        times_b = [b.transfer_time_ms(5e5) for _ in range(10)]
        assert times_a == times_b

    def test_different_seeds_differ(self):
        a = NetworkChannel(WIFI, seed=1)
        b = NetworkChannel(WIFI, seed=2)
        assert [a.transfer_time_ms(5e5) for _ in range(5)] != [
            b.transfer_time_ms(5e5) for _ in range(5)
        ]

    def test_ack_estimate_tracks_throughput(self):
        channel = NetworkChannel(WIFI, seed=3)
        prior = channel.ack_throughput_bytes_per_ms
        for _ in range(50):
            channel.transfer_time_ms(5e5)
        posterior = channel.ack_throughput_bytes_per_ms
        # The EWMA should settle near the effective throughput.
        assert posterior == pytest.approx(channel.mean_effective_bytes_per_ms, rel=0.25)
        assert posterior != prior

    def test_round_trip_is_twice_one_way(self):
        channel = NetworkChannel(LTE_4G)
        assert channel.round_trip_ms == pytest.approx(2 * channel.one_way_ms)

    @given(st.floats(min_value=1e3, max_value=1e7))
    @settings(max_examples=30)
    def test_transfer_time_positive_and_bounded(self, payload):
        channel = NetworkChannel(WIFI, seed=5)
        duration = channel.transfer_time_ms(payload)
        # Even with worst-case jitter the transfer is bounded by 4x nominal.
        floor = payload / channel.nominal_bytes_per_ms
        assert floor * 0.5 < duration < floor * 5 + 1.0


class TestChannelEdgeCases:
    def test_zero_byte_transfer_consumes_no_jitter(self):
        """Free transfers must not advance the rng stream (determinism)."""
        plain = NetworkChannel(WIFI, seed=4)
        interleaved = NetworkChannel(WIFI, seed=4)
        expected = [plain.transfer_time_ms(5e5) for _ in range(5)]
        observed = []
        for _ in range(5):
            interleaved.transfer_time_ms(0.0)
            observed.append(interleaved.transfer_time_ms(5e5))
        assert observed == expected

    def test_zero_byte_transfer_keeps_ack_estimate(self):
        channel = NetworkChannel(WIFI, seed=4)
        prior = channel.ack_throughput_bytes_per_ms
        channel.transfer_time_ms(0.0)
        assert channel.ack_throughput_bytes_per_ms == prior

    def test_single_chunk_pipeline_is_serial(self):
        """chunks=1 degenerates to the serial sum of the stages."""
        from repro.codec.stream import pipelined_latency_ms

        stages = [4.0, 1.5, 9.0, 2.0]
        assert pipelined_latency_ms(stages, 1) == pytest.approx(sum(stages))

    def test_many_chunk_pipeline_approaches_bottleneck(self):
        from repro.codec.stream import pipelined_latency_ms

        stages = [4.0, 1.5, 9.0, 2.0]
        many = pipelined_latency_ms(stages, 10_000)
        assert many == pytest.approx(max(stages), rel=0.01)
        assert many <= pipelined_latency_ms(stages, 1)

    def test_pipelining_monotone_in_chunks(self):
        from repro.codec.stream import pipelined_latency_ms

        stages = [4.0, 1.5, 9.0, 2.0]
        latencies = [pipelined_latency_ms(stages, k) for k in (1, 2, 4, 8, 16)]
        assert latencies == sorted(latencies, reverse=True)

    def test_per_seed_jitter_determinism_with_dynamic_profile(self):
        from repro.network.profile import PiecewiseProfile

        profile = PiecewiseProfile.bandwidth_drop(
            WIFI, start_ms=50.0, duration_ms=100.0, factor=0.3
        )
        a = NetworkChannel(profile, seed=11)
        b = NetworkChannel(profile, seed=11)
        times_a, times_b = [], []
        for step in range(10):
            a.advance_to(step * 30.0)
            b.advance_to(step * 30.0)
            times_a.append(a.transfer_time_ms(2e5))
            times_b.append(b.transfer_time_ms(2e5))
        assert times_a == times_b


class TestUplink:
    """Asymmetric uplink modelling (pose upload / LIWC feedback cost)."""

    def test_unmodelled_uplink_costs_only_propagation(self):
        channel = NetworkChannel(WIFI, seed=0)
        assert channel.uplink_bytes_per_ms is None
        assert channel.uplink_time_ms(64.0) == WIFI.propagation_ms

    def test_modelled_uplink_adds_serialisation(self):
        channel = NetworkChannel(WIFI.with_uplink(2.0), seed=0)
        assert channel.uplink_time_ms(1e5) > WIFI.propagation_ms
        # Serialisation grows with the payload.
        assert channel.uplink_time_ms(2e5) > channel.uplink_time_ms(1e5)

    def test_zero_uplink_is_rejected(self):
        """The degenerate uplink=0 link is a configuration error."""
        with pytest.raises(NetworkError):
            WIFI.with_uplink(0.0)
        with pytest.raises(NetworkError):
            WIFI.with_uplink(-5.0)

    def test_huge_uplink_degenerates_to_the_legacy_model(self):
        """uplink >> downlink: serialisation vanishes into propagation."""
        legacy = NetworkChannel(WIFI, seed=0)
        huge = NetworkChannel(WIFI.with_uplink(1e9), seed=0)
        assert huge.uplink_time_ms(64.0) == pytest.approx(
            legacy.uplink_time_ms(64.0), abs=0.3
        )

    def test_empty_payload_costs_propagation_even_when_modelled(self):
        channel = NetworkChannel(WIFI.with_uplink(10.0), seed=0)
        assert channel.uplink_time_ms(0.0) == WIFI.propagation_ms

    def test_negative_payload_rejected(self):
        channel = NetworkChannel(WIFI.with_uplink(10.0), seed=0)
        with pytest.raises(NetworkError):
            channel.uplink_time_ms(-1.0)

    def test_uplink_does_not_perturb_downlink_jitter_stream(self):
        """Enabling the uplink must not consume downlink RNG draws."""
        plain = NetworkChannel(WIFI, seed=3)
        asymmetric = NetworkChannel(WIFI.with_uplink(5.0), seed=3)
        asymmetric.uplink_time_ms(1e4)
        downs_plain = [plain.transfer_time_ms(1e5) for _ in range(5)]
        downs_asym = [asymmetric.transfer_time_ms(1e5) for _ in range(5)]
        assert downs_plain == downs_asym

    def test_uplink_reaches_the_remote_request_path(self):
        """A modelled slow uplink lengthens remote-system latency."""
        from repro.sim.runner import RunSpec, run
        from repro.sim.systems import PlatformConfig

        fast = run(RunSpec(system="remote", app="Doom3-L", n_frames=40))
        slow = run(
            RunSpec(
                system="remote",
                app="Doom3-L",
                n_frames=40,
                platform=PlatformConfig(network=WIFI.with_uplink(0.5)),
            )
        )
        assert slow.mean_latency_ms > fast.mean_latency_ms
