"""Tests for pose algebra and motion traces."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.motion.dof import GazeDelta, GazePoint, Pose, PoseDelta
from repro.motion.traces import (
    GazeMotionConfig,
    HeadMotionConfig,
    generate_trace,
)


class TestPoseAlgebra:
    def test_delta_between_poses(self):
        a = Pose(x=1.0, yaw=10.0)
        b = Pose(x=1.5, yaw=15.0)
        delta = b.delta_from(a)
        assert delta.dx == pytest.approx(0.5)
        assert delta.dyaw == pytest.approx(5.0)

    def test_angle_wrap(self):
        a = Pose(yaw=170.0)
        b = Pose(yaw=-170.0)
        assert b.delta_from(a).dyaw == pytest.approx(20.0)

    def test_exceeds_flags(self):
        delta = PoseDelta(dx=0.01, dyaw=1.0)
        flags = delta.exceeds(0.005, 0.5)
        assert flags == (True, False, False, True, False, False)

    def test_gaze_delta(self):
        a = GazePoint(100.0, 100.0)
        b = GazePoint(130.0, 60.0)
        delta = b.delta_from(a)
        assert delta.magnitude_px == pytest.approx(50.0)
        assert delta.direction_quadrant == 3  # +x, -y

    def test_quadrants(self):
        assert GazeDelta(1, 1).direction_quadrant == 0
        assert GazeDelta(-1, 1).direction_quadrant == 1
        assert GazeDelta(-1, -1).direction_quadrant == 2
        assert GazeDelta(1, -1).direction_quadrant == 3

    @given(st.floats(-1000, 1000), st.floats(-1000, 1000))
    @settings(max_examples=40)
    def test_delta_roundtrip(self, yaw_a, yaw_b):
        delta = Pose(yaw=yaw_b % 360).delta_from(Pose(yaw=yaw_a % 360))
        assert -180.0 < delta.dyaw <= 180.0


class TestTraces:
    def test_deterministic_for_seed(self):
        a = generate_trace(50, 11.1, 1920, 2160, seed=4)
        b = generate_trace(50, 11.1, 1920, 2160, seed=4)
        assert all(
            sa.pose == sb.pose and sa.gaze == sb.gaze
            for sa, sb in zip(a.samples, b.samples)
        )

    def test_different_seeds_differ(self):
        a = generate_trace(50, 11.1, 1920, 2160, seed=1)
        b = generate_trace(50, 11.1, 1920, 2160, seed=2)
        assert any(sa.pose != sb.pose for sa, sb in zip(a.samples, b.samples))

    def test_length_and_times(self):
        trace = generate_trace(30, 10.0, 1920, 2160, seed=0)
        assert len(trace) == 30
        assert trace[5].time_ms == pytest.approx(50.0)

    def test_gaze_stays_on_panel(self):
        trace = generate_trace(500, 11.1, 1280, 1600, seed=3)
        for sample in trace:
            assert 0.0 <= sample.gaze.x_px <= 1280.0
            assert 0.0 <= sample.gaze.y_px <= 1600.0

    def test_activity_in_unit_range(self):
        trace = generate_trace(300, 11.1, 1920, 2160, seed=5)
        for sample in trace:
            assert 0.0 <= sample.activity <= 1.0

    def test_motion_is_temporally_correlated(self):
        """OU velocities: adjacent frame deltas correlate, unlike white noise."""
        trace = generate_trace(600, 11.1, 1920, 2160, seed=6)
        yaws = np.array([s.pose.yaw for s in trace])
        deltas = np.diff(yaws)
        corr = np.corrcoef(deltas[:-1], deltas[1:])[0, 1]
        assert corr > 0.5

    def test_calm_phases_reduce_motion(self):
        calm = HeadMotionConfig(calm_scale=0.0, mean_phase_s=1000.0)
        trace = generate_trace(100, 11.1, 1920, 2160, seed=0, head=calm)
        # Either all-calm (zero velocity) or all-active depending on phase
        # draw; with calm_scale=0 a calm run must be exactly still.
        speeds = [s.activity for s in trace]
        assert min(speeds) >= 0.0

    def test_zero_frames(self):
        assert len(generate_trace(0, 11.1, 100, 100)) == 0

    def test_invalid_arguments(self):
        with pytest.raises(WorkloadError):
            generate_trace(-1, 11.1, 100, 100)
        with pytest.raises(WorkloadError):
            generate_trace(10, 0.0, 100, 100)
        with pytest.raises(WorkloadError):
            HeadMotionConfig(calm_scale=2.0)
        with pytest.raises(WorkloadError):
            GazeMotionConfig(center_bias=-0.1)
