"""Tests for app models, tethered apps, scene dynamics and generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.motion.traces import generate_trace
from repro.workloads.apps import APPS, TABLE3_ORDER, get_app
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scene_model import InteractionModel, SceneComplexityModel
from repro.workloads.tethered import TABLE1_ORDER, TETHERED_APPS


class TestApps:
    def test_table3_complete(self):
        assert set(TABLE3_ORDER) == set(APPS)
        assert len(TABLE3_ORDER) == 7

    def test_table3_batch_counts(self):
        """Draw-batch counts are verbatim from Table 3."""
        expected = {
            "Doom3-H": 382, "Doom3-L": 382, "HL2-H": 656, "HL2-L": 656,
            "GRID": 3680, "UT3": 1752, "Wolf": 3394,
        }
        for name, batches in expected.items():
            assert APPS[name].draw_batches == batches

    def test_table3_resolutions(self):
        assert (APPS["Doom3-H"].width_px, APPS["Doom3-H"].height_px) == (1920, 2160)
        assert (APPS["Doom3-L"].width_px, APPS["Doom3-L"].height_px) == (1280, 1600)

    def test_table3_apis(self):
        assert APPS["Doom3-H"].api == "OpenGL"
        assert APPS["GRID"].api == "DirectX"

    def test_lookup_by_short_name(self):
        assert get_app("D3H") is APPS["Doom3-H"]
        assert get_app("gd") is APPS["GRID"]

    def test_unknown_app(self):
        with pytest.raises(WorkloadError):
            get_app("Quake")

    def test_full_workload_scales_with_complexity(self):
        app = get_app("UT3")
        light = app.full_workload(0.8)
        heavy = app.full_workload(1.2)
        assert heavy.fragments > light.fragments
        assert heavy.vertices > light.vertices

    def test_invalid_complexity(self):
        with pytest.raises(WorkloadError):
            get_app("UT3").full_workload(0.0)


class TestTetheredApps:
    def test_table1_complete(self):
        assert set(TABLE1_ORDER) == set(TETHERED_APPS)
        assert len(TABLE1_ORDER) == 5

    def test_table1_triangles(self):
        """Triangle counts are verbatim from Table 1."""
        assert TETHERED_APPS["Foveated3D"].triangles == pytest.approx(231e3)
        assert TETHERED_APPS["Viking"].triangles == pytest.approx(2.8e6)
        assert TETHERED_APPS["San Miguel"].triangles == pytest.approx(4.2e6)

    def test_f_ranges_match_table1(self):
        assert TETHERED_APPS["Foveated3D"].f_range == (0.16, 0.52)
        assert TETHERED_APPS["Nature"].f_range == (0.10, 0.24)

    def test_interactive_fraction_bounds(self):
        app = TETHERED_APPS["Nature"]
        assert app.interactive_fraction(0.0) == pytest.approx(app.f_range[0])
        assert app.interactive_fraction(1.0) == pytest.approx(app.f_range[1])

    def test_fig5_nature_latency_span(self):
        """Fig. 5: the tree costs ~12 ms far away and ~26 ms up close."""
        app = TETHERED_APPS["Nature"]
        assert app.interactive_latency_ms(0.0) == pytest.approx(11.0, abs=1.5)
        assert app.interactive_latency_ms(1.0) == pytest.approx(26.4, abs=1.5)

    def test_closeness_monotone(self):
        app = TETHERED_APPS["Foveated3D"]
        values = [app.interactive_latency_ms(c) for c in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(values)

    def test_invalid_closeness(self):
        with pytest.raises(WorkloadError):
            TETHERED_APPS["Nature"].interactive_fraction(1.5)


class TestSceneComplexity:
    def _trace(self, n=200, seed=0):
        return generate_trace(n, 11.1, 1920, 2160, seed=seed)

    def test_multiplier_clamped(self):
        model = SceneComplexityModel(1920, 2160, seed=1)
        for sample in self._trace():
            value = model.step(sample)
            assert model.lo <= value <= model.hi

    def test_hotspot_density_in_unit_range(self):
        model = SceneComplexityModel(1920, 2160, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = model.hotspot_density(rng.uniform(0, 1920), rng.uniform(0, 2160))
            assert 0.0 <= d <= 1.0

    def test_complexity_correlates_with_gaze_position(self):
        """Fig. 8's premise: where the user looks determines workload.

        With the activity and animation-noise terms silenced, the
        multiplier must be a deterministic function of hotspot density
        under the gaze (near-perfect correlation).
        """
        model = SceneComplexityModel(
            1920, 2160, seed=3, noise_sigma=0.0, activity_gain=0.0
        )
        trace = self._trace(400, seed=3)
        complexities = np.array([model.step(s) for s in trace])
        densities = np.array(
            [model.hotspot_density(s.gaze.x_px, s.gaze.y_px) for s in trace]
        )
        corr = np.corrcoef(complexities, densities)[0, 1]
        assert corr > 0.95

    def test_activity_raises_complexity(self):
        """The motion coupling of Fig. 8: faster heads, heavier frames."""
        from repro.motion.dof import Pose
        from repro.motion.traces import MotionSample
        from repro.motion.dof import GazePoint

        model = SceneComplexityModel(
            1920, 2160, seed=4, noise_sigma=0.0, hotspot_gain=0.0
        )
        still = MotionSample(0, 0.0, Pose(), GazePoint(960, 1080), activity=0.0)
        moving = MotionSample(1, 11.0, Pose(), GazePoint(960, 1080), activity=1.0)
        assert model.step(moving) > model.step(still)

    def test_invalid_config(self):
        with pytest.raises(WorkloadError):
            SceneComplexityModel(0, 100)
        with pytest.raises(WorkloadError):
            SceneComplexityModel(100, 100, lo=2.0, hi=1.0)


class TestInteractionModel:
    def test_closeness_in_unit_range(self):
        model = InteractionModel(seed=0)
        values = [model.step() for _ in range(500)]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_mean_reversion(self):
        model = InteractionModel(mean_closeness=0.4, seed=1)
        values = [model.step() for _ in range(2000)]
        assert np.mean(values[500:]) == pytest.approx(0.4, abs=0.08)

    def test_temporal_correlation(self):
        model = InteractionModel(seed=2)
        values = np.array([model.step() for _ in range(1000)])
        corr = np.corrcoef(values[:-1], values[1:])[0, 1]
        assert corr > 0.8

    def test_invalid_config(self):
        with pytest.raises(WorkloadError):
            InteractionModel(mean_closeness=2.0)
        with pytest.raises(WorkloadError):
            InteractionModel(correlation_frames=0)


class TestWorkloadGenerator:
    def test_deterministic(self):
        a = WorkloadGenerator(get_app("HL2-H"), seed=9).generate(50)
        b = WorkloadGenerator(get_app("HL2-H"), seed=9).generate(50)
        assert all(
            x.complexity == y.complexity and x.full.fragments == y.full.fragments
            for x, y in zip(a, b)
        )

    def test_interactive_fraction_in_app_range(self):
        app = get_app("GRID")
        lo, hi = app.interactive_fraction_range
        for frame in WorkloadGenerator(app, seed=4).generate(200):
            assert lo - 1e-9 <= frame.interactive_fraction <= hi + 1e-9

    def test_content_complexity_propagated(self):
        app = get_app("Wolf")
        frames = WorkloadGenerator(app, seed=0).generate(10)
        assert all(f.content_complexity == app.content_complexity for f in frames)

    def test_trace_matches_frames(self):
        gen = WorkloadGenerator(get_app("UT3"), seed=5)
        frames = gen.generate(25)
        trace = gen.trace(25)
        assert [f.motion.gaze for f in frames] == [s.gaze for s in trace]

    def test_complexity_varies(self):
        frames = WorkloadGenerator(get_app("GRID"), seed=6).generate(200)
        values = {round(f.complexity, 6) for f in frames}
        assert len(values) > 50

    def test_invalid_arguments(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(get_app("UT3"), frame_dt_ms=0.0)
        with pytest.raises(WorkloadError):
            WorkloadGenerator(get_app("UT3")).generate(-1)

    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=10, deadline=None)
    def test_generate_length(self, n):
        assert len(WorkloadGenerator(get_app("Doom3-L"), seed=0).generate(n)) == n
