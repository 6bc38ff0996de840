"""Tests for LIWC: motion codec, mapping table, predictor, controller."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.liwc import (
    ACTIONS_DEG,
    LIWC,
    LIWCConfig,
    LatencyPredictor,
    MappingTable,
    MotionCodec,
)
from repro.errors import ControllerError
from repro.motion.dof import GazeDelta, PoseDelta


class TestMotionCodec:
    def test_still_user_encodes_to_zero(self):
        codec = MotionCodec()
        assert codec.encode(PoseDelta(), GazeDelta()) == 0

    def test_code_within_ten_bits(self):
        codec = MotionCodec()
        big = PoseDelta(dx=1, dy=1, dz=1, dyaw=50, dpitch=50, droll=50)
        saccade = GazeDelta(dx_px=-500, dy_px=-500)
        code = codec.encode(big, saccade)
        assert 0 <= code < codec.index_space == 1024

    def test_each_dof_bit_distinct(self):
        codec = MotionCodec()
        codes = set()
        for axis in ("dx", "dy", "dz", "dyaw", "dpitch", "droll"):
            delta = PoseDelta(**{axis: 10.0})
            codes.add(codec.encode(delta, GazeDelta()))
        assert len(codes) == 6

    def test_gaze_magnitude_buckets(self):
        codec = MotionCodec(gaze_magnitude_bounds_px=(10, 60, 200))
        assert codec.gaze_magnitude_bucket(0.0) == 0
        assert codec.gaze_magnitude_bucket(30.0) == 1
        assert codec.gaze_magnitude_bucket(100.0) == 2
        assert codec.gaze_magnitude_bucket(500.0) == 3

    def test_gaze_quadrant_encoded(self):
        codec = MotionCodec()
        quadrant_codes = {
            codec.encode(PoseDelta(), GazeDelta(dx_px=dx, dy_px=dy))
            for dx, dy in ((50, 50), (-50, 50), (-50, -50), (50, -50))
        }
        assert len(quadrant_codes) == 4

    def test_invalid_thresholds(self):
        with pytest.raises(ControllerError):
            MotionCodec(translation_threshold_m=0)
        with pytest.raises(ControllerError):
            MotionCodec(gaze_magnitude_bounds_px=(60, 10, 200))

    @given(
        st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1),
        st.floats(-90, 90), st.floats(-90, 90), st.floats(-90, 90),
        st.floats(-2000, 2000), st.floats(-2000, 2000),
    )
    @settings(max_examples=50)
    def test_codes_always_in_range(self, dx, dy, dz, dyaw, dpitch, droll, gx, gy):
        codec = MotionCodec()
        code = codec.encode(
            PoseDelta(dx, dy, dz, dyaw, dpitch, droll), GazeDelta(gx, gy)
        )
        assert 0 <= code < 1024


class TestMappingTable:
    def test_paper_table_depth_and_size(self):
        """Sec. 4.3: depth 2^15, fp16 entries => 64 KB SRAM."""
        table = MappingTable()
        assert table.depth == 32768
        assert table.size_bytes == 64 * 1024

    def test_prior_gradients_encode_physics(self):
        """Growing the fovea should be expected to reduce remote-local diff."""
        table = MappingTable(motion_codes=4, prior_slope_ms_per_deg=0.5)
        gradients = table.gradients(0)
        assert gradients[ACTIONS_DEG.index(5)] == pytest.approx(-2.5, abs=0.01)
        assert gradients[ACTIONS_DEG.index(-5)] == pytest.approx(2.5, abs=0.01)

    def test_lookup_cancels_imbalance(self):
        table = MappingTable(motion_codes=4, prior_slope_ms_per_deg=1.0)
        # Remote 3 ms slower: best action is +3 degrees (gradient -3).
        idx = table.lookup(0, imbalance_ms=3.0)
        assert ACTIONS_DEG[idx] == 3

    def test_lookup_zero_imbalance_holds(self):
        table = MappingTable(motion_codes=4)
        assert ACTIONS_DEG[table.lookup(0, 0.0)] == 0

    def test_lookup_saturates_at_extremes(self):
        table = MappingTable(motion_codes=4, prior_slope_ms_per_deg=1.0)
        assert ACTIONS_DEG[table.lookup(0, 100.0)] == 5
        assert ACTIONS_DEG[table.lookup(0, -100.0)] == -5

    def test_update_moves_gradient_toward_observation(self):
        table = MappingTable(motion_codes=4)
        before = table.gradients(1)[7]
        table.update(1, 7, observed_delta_ms=10.0, alpha=0.5)
        after = table.gradients(1)[7]
        assert after == pytest.approx(0.5 * before + 5.0, abs=0.05)

    def test_update_validates_inputs(self):
        table = MappingTable(motion_codes=4)
        with pytest.raises(ControllerError):
            table.update(99, 0, 1.0, 0.1)
        with pytest.raises(ControllerError):
            table.update(0, 99, 1.0, 0.1)
        with pytest.raises(ControllerError):
            table.update(0, 0, 1.0, alpha=0.0)

    def test_entries_stored_as_fp16(self):
        table = MappingTable(motion_codes=2)
        table.update(0, 0, 1.0 / 3.0, alpha=1.0)
        stored = table.gradients(0)[0]
        assert stored == pytest.approx(np.float16(1.0 / 3.0), abs=1e-6)

    @given(st.floats(-20, 20), st.integers(0, 10))
    @settings(max_examples=40)
    def test_update_bounded_by_inputs(self, delta, action):
        """EWMA update stays within [min, max] of old value and observation."""
        table = MappingTable(motion_codes=2)
        old = float(table.gradients(0)[action])
        table.update(0, action, delta, alpha=0.3)
        new = float(table.gradients(0)[action])
        lo, hi = min(old, delta), max(old, delta)
        assert lo - 0.05 <= new <= hi + 0.05


class TestLatencyPredictor:
    def test_local_prediction_eq2(self):
        pred = LatencyPredictor(gpu_throughput=1000.0)
        assert pred.predict_local_ms(10_000, 0.5) == pytest.approx(5.0)

    def test_remote_prediction_eq2(self):
        pred = LatencyPredictor(bits_per_pixel=0.8, path_overhead_ms=2.0)
        # 1 Mpx * 0.8 bpp / 8 = 100 KB at 20 KB/ms => 5 ms + overhead.
        assert pred.predict_remote_ms(1e6, 20_000.0) == pytest.approx(7.0)

    def test_observe_local_converges(self):
        pred = LatencyPredictor(gpu_throughput=1.0, ewma_alpha=0.5)
        for _ in range(40):
            pred.observe_local(triangles=50_000, fovea_fraction=0.4, measured_ms=10.0)
        # True throughput = 50000*0.4/10 = 2000.
        assert pred.gpu_throughput == pytest.approx(2000.0, rel=0.01)

    def test_observe_remote_updates_bpp_and_overhead(self):
        pred = LatencyPredictor(bits_per_pixel=0.1, path_overhead_ms=0.0, ewma_alpha=0.5)
        for _ in range(40):
            pred.observe_remote(
                periphery_pixels=1e6,
                payload_bytes=100_000,
                measured_ms=9.0,
                ack_throughput_bytes_per_ms=20_000,
            )
        assert pred.bits_per_pixel == pytest.approx(0.8, rel=0.01)
        assert pred.path_overhead_ms == pytest.approx(4.0, rel=0.01)

    def test_invalid_inputs(self):
        pred = LatencyPredictor()
        with pytest.raises(ControllerError):
            pred.predict_local_ms(-1, 0.5)
        with pytest.raises(ControllerError):
            pred.predict_remote_ms(1e6, 0.0)


class _Env:
    """A synthetic local/remote latency environment for closed-loop tests."""

    def __init__(self, local_slope=0.25, remote_at_zero=12.0, remote_slope=0.18):
        self.local_slope = local_slope
        self.remote_at_zero = remote_at_zero
        self.remote_slope = remote_slope

    def local_ms(self, e1):
        return self.local_slope * e1

    def remote_ms(self, e1):
        return max(self.remote_at_zero - self.remote_slope * e1, 1.0)

    def balanced_e1(self):
        return self.remote_at_zero / (self.local_slope + self.remote_slope)


class TestLIWCClosedLoop:
    def _run(self, env, frames=120):
        liwc = LIWC(LIWCConfig(deadband_ms=0.1))
        triangles = 1_000_000.0
        for _ in range(frames):
            e1 = liwc.e1_deg
            fovea_fraction = min(e1 / 90.0, 1.0)
            periphery_px = max(1e6 * (1 - fovea_fraction), 0.0)
            liwc.select(
                PoseDelta(), GazeDelta(), triangles, fovea_fraction, periphery_px,
                ack_throughput_bytes_per_ms=20_000.0,
            )
            e1 = liwc.e1_deg
            local = env.local_ms(e1)
            remote = env.remote_ms(e1)
            liwc.observe(
                measured_local_ms=local,
                measured_remote_ms=remote,
                triangles=triangles,
                fovea_fraction=min(e1 / 90.0, 1.0),
                periphery_pixels=max(1e6 * (1 - e1 / 90.0), 0.0),
                payload_bytes=max(1e5 * (1 - e1 / 90.0), 1.0),
                ack_throughput_bytes_per_ms=20_000.0,
            )
        return liwc

    def test_converges_near_balance(self):
        env = _Env()
        liwc = self._run(env)
        final_ratio = env.remote_ms(liwc.e1_deg) / max(env.local_ms(liwc.e1_deg), 1e-9)
        assert 0.5 < final_ratio < 2.0

    def test_respects_bounds(self):
        # Remote always enormous: controller should saturate at max e1.
        env = _Env(local_slope=0.01, remote_at_zero=100.0, remote_slope=0.0)
        liwc = self._run(env, frames=60)
        assert liwc.e1_deg == pytest.approx(liwc.config.max_e1_deg)

    def test_light_remote_shrinks_fovea(self):
        env = _Env(local_slope=1.0, remote_at_zero=1.0, remote_slope=0.0)
        liwc = self._run(env, frames=60)
        assert liwc.e1_deg == pytest.approx(liwc.config.min_e1_deg)

    def test_reset_restores_initial_state(self):
        liwc = self._run(_Env())
        liwc.reset()
        assert liwc.e1_deg == liwc.config.min_e1_deg
        assert liwc._last_diff_ms is None

    def test_step_limited_to_five_degrees(self):
        liwc = LIWC()
        history = [liwc.e1_deg]
        triangles = 1e6
        for _ in range(30):
            liwc.select(PoseDelta(), GazeDelta(), triangles, 0.1, 1e6, 20_000.0)
            history.append(liwc.e1_deg)
            liwc.observe(1.0, 10.0, triangles, 0.1, 1e6, 1e5, 20_000.0)
        steps = np.abs(np.diff(history))
        assert steps.max() <= 5.0 + 1e-9


class TestLIWCConfig:
    def test_invalid_alpha(self):
        with pytest.raises(ControllerError):
            LIWCConfig(reward_alpha=0.0)

    def test_invalid_bounds(self):
        with pytest.raises(ControllerError):
            LIWCConfig(min_e1_deg=10.0, max_e1_deg=5.0)

    def test_invalid_deadband(self):
        with pytest.raises(ControllerError):
            LIWCConfig(deadband_ms=-1.0)
