"""Tests for the foveation model: MAR, display geometry, Eq. (1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import constants
from repro.core.foveation import (
    DisplayGeometry,
    FoveationModel,
    MARModel,
    _disc_rect_areas,
)
from repro.errors import FoveationError


class TestMARModel:
    def test_mar_at_fovea_is_omega0(self):
        mar = MARModel()
        assert mar.mar(0.0) == pytest.approx(constants.FOVEA_MAR_DEG)

    def test_mar_grows_linearly(self):
        mar = MARModel(slope=0.02, omega_0=0.02)
        assert mar.mar(10.0) == pytest.approx(0.02 + 0.2)

    def test_negative_eccentricity_rejected(self):
        with pytest.raises(FoveationError):
            MARModel().mar(-1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(FoveationError):
            MARModel(slope=-0.1)
        with pytest.raises(FoveationError):
            MARModel(omega_0=0.0)

    def test_sampling_factor_clamped_at_one(self):
        mar = MARModel()
        # A display much coarser than the eye: no reduction possible.
        assert mar.sampling_factor(0.0, display_mar_deg=1.0) == 1.0

    def test_sampling_factor_grows_with_eccentricity(self):
        mar = MARModel()
        display_mar = 0.05
        factors = [mar.sampling_factor(e, display_mar) for e in (0, 10, 20, 40)]
        assert factors == sorted(factors)

    def test_sampling_factor_invalid_display(self):
        with pytest.raises(FoveationError):
            MARModel().sampling_factor(5.0, 0.0)

    @given(st.floats(min_value=0.0, max_value=90.0))
    def test_sampling_factor_always_at_least_one(self, ecc):
        assert MARModel().sampling_factor(ecc, 0.054) >= 1.0


class TestDisplayGeometry:
    def test_pixels_per_degree(self):
        display = DisplayGeometry(1100, 1100, hfov_deg=110, vfov_deg=110)
        assert display.pixels_per_degree == pytest.approx(10.0)

    def test_native_mar_is_inverse_ppd(self):
        display = DisplayGeometry(1920, 2160)
        assert display.native_mar_deg == pytest.approx(1.0 / display.pixels_per_degree)

    def test_corner_eccentricity(self):
        display = DisplayGeometry(1920, 2160)
        expected = math.hypot(960, 1080) / display.pixels_per_degree
        assert display.corner_eccentricity_deg == pytest.approx(expected)

    def test_radius_conversion(self):
        display = DisplayGeometry(1920, 2160)
        assert display.radius_px(10.0) == pytest.approx(10 * display.pixels_per_degree)

    def test_invalid_dimensions(self):
        with pytest.raises(FoveationError):
            DisplayGeometry(0, 100)
        with pytest.raises(FoveationError):
            DisplayGeometry(100, 100, hfov_deg=0)

    def test_region_area_zero_at_zero_eccentricity(self):
        display = DisplayGeometry(1920, 2160)
        assert display.region_area_px(0.0) == 0.0

    def test_region_area_unclipped_disc(self):
        display = DisplayGeometry(1920, 2160)
        # Small centred disc: no clipping, area = pi r^2.
        radius = display.radius_px(5.0)
        area = display.region_area_px(5.0)
        assert area == pytest.approx(math.pi * radius**2, rel=1e-3)

    def test_region_area_clipped_to_panel(self):
        display = DisplayGeometry(1920, 2160)
        huge = display.region_area_px(200.0)
        assert huge == pytest.approx(display.total_pixels, rel=1e-3)

    def test_region_area_off_center_gaze_smaller(self):
        display = DisplayGeometry(1920, 2160)
        centred = display.region_area_px(30.0)
        cornered = display.region_area_px(30.0, gaze_x_px=0.0, gaze_y_px=0.0)
        assert cornered < centred

    @given(
        st.floats(min_value=1.0, max_value=70.0),
        st.floats(min_value=0.0, max_value=1920.0),
        st.floats(min_value=0.0, max_value=2160.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_region_area_bounded(self, ecc, gx, gy):
        display = DisplayGeometry(1920, 2160)
        area = display.region_area_px(ecc, gx, gy)
        assert 0.0 <= area <= display.total_pixels * (1 + 1e-6)


class TestFoveationPlan:
    @pytest.fixture
    def model(self):
        return FoveationModel(DisplayGeometry(1920, 2160))

    def test_layer_scales_monotone(self, model):
        s_mid_a, s_out_a = model.layer_scales(5.0, 20.0)
        s_mid_b, s_out_b = model.layer_scales(15.0, 40.0)
        assert s_mid_b >= s_mid_a
        assert s_out_b >= s_out_a

    def test_layer_scales_capped(self, model):
        _, s_out = model.layer_scales(5.0, 70.0)
        assert s_out <= model.scale_cap

    def test_plan_basic_invariants(self, model):
        plan = model.plan(15.0)
        assert plan.e2_deg >= plan.e1_deg
        assert 0 < plan.fovea_fraction < 1
        assert plan.middle_scale >= 1.0
        assert plan.outer_scale >= plan.middle_scale - 1e-9
        assert plan.effective_pixels <= plan.native_pixels

    def test_bigger_fovea_means_more_local_pixels(self, model):
        small = model.plan(10.0)
        large = model.plan(30.0)
        assert large.fovea_pixels > small.fovea_pixels

    def test_bigger_fovea_means_fewer_transmitted_pixels(self, model):
        small = model.plan(10.0)
        large = model.plan(40.0)
        assert large.periphery_pixels < small.periphery_pixels

    def test_full_frame_coverage_at_corner(self, model):
        corner = model.display.corner_eccentricity_deg
        plan = model.plan(corner + 5.0)
        assert plan.covers_full_frame
        assert plan.periphery_pixels == pytest.approx(0.0, abs=1.0)

    def test_explicit_e2_respected(self, model):
        plan = model.plan(10.0, e2_deg=25.0)
        assert plan.e2_deg == pytest.approx(25.0)

    def test_e2_below_e1_rejected(self, model):
        with pytest.raises(FoveationError):
            model.plan(20.0, e2_deg=10.0)

    def test_negative_e1_rejected(self, model):
        with pytest.raises(FoveationError):
            model.plan(-1.0)

    def test_optimize_e2_in_range(self, model):
        e2 = model.optimize_e2(10.0)
        assert 10.0 <= e2 <= model.display.corner_eccentricity_deg

    def test_optimize_e2_beats_extremes(self, model):
        """Eq. (1): the optimiser's periphery cost is minimal on the grid."""
        e1 = 8.0
        best = model.optimize_e2(e1)
        best_cost = sum(model.periphery_pixels(e1, best))
        for e2 in (e1, e1 + 10.0, model.display.corner_eccentricity_deg):
            cost = sum(model.periphery_pixels(e1, e2))
            assert best_cost <= cost + 1.0

    def test_resolution_reduction_bounds(self, model):
        for e1 in (5.0, 20.0, 45.0):
            plan = model.plan(e1)
            assert 0.0 <= plan.resolution_reduction < 1.0

    def test_invalid_scale_cap(self):
        with pytest.raises(FoveationError):
            FoveationModel(DisplayGeometry(100, 100), scale_cap=0.5)

    def test_invalid_eyes(self):
        with pytest.raises(FoveationError):
            FoveationModel(DisplayGeometry(100, 100), eyes=0)

    @given(st.floats(min_value=5.0, max_value=70.0))
    @settings(max_examples=25, deadline=None)
    def test_plan_pixel_conservation(self, e1):
        """Rendered pixels never exceed native; all quantities nonnegative."""
        model = FoveationModel(DisplayGeometry(1920, 2160))
        plan = model.plan(e1)
        assert plan.fovea_pixels >= 0
        assert plan.middle_pixels >= 0
        assert plan.outer_pixels >= 0
        assert plan.effective_pixels <= plan.native_pixels * (1 + 1e-9)

    @given(
        st.floats(min_value=5.0, max_value=60.0),
        st.floats(min_value=5.0, max_value=60.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_fovea_pixels_monotone_in_e1(self, a, b):
        model = FoveationModel(DisplayGeometry(1920, 2160))
        lo, hi = min(a, b), max(a, b)
        assert model.plan(lo).fovea_pixels <= model.plan(hi).fovea_pixels + 1e-6


class TestVectorisedAreas:
    def test_matches_scalar_implementation(self):
        from repro.core.foveation import _disc_rect_area, _disc_rect_areas

        radii = np.array([50.0, 200.0, 900.0, 1500.0])
        vector = _disc_rect_areas(960.0, 1080.0, radii, 1920.0, 2160.0)
        for r, v in zip(radii, vector):
            scalar = _disc_rect_area(960.0, 1080.0, float(r), 1920.0, 2160.0, 256)
            assert v == pytest.approx(scalar, rel=5e-3)


def _eq1_costs(model, e1, gaze_x, gaze_y):
    """``optimize_e2``'s candidates, cost vector and areas, as it builds them."""
    display = model.display
    e_max = display.corner_eccentricity_deg
    candidates = np.minimum(np.arange(e1, e_max + 0.5, 0.5), e_max)
    areas = _disc_rect_areas(
        gaze_x, gaze_y, candidates * display.pixels_per_degree,
        display.width_px, display.height_px,
    )
    s_mid, _ = model.layer_scales(e1, e1)
    s_out = np.minimum(
        (model.mar.omega_0 + model.mar.slope * candidates) / display.native_mar_deg,
        model.scale_cap,
    )
    s_out = np.maximum(s_out, 1.0)
    middle = np.maximum(areas - areas[0], 0.0) / (s_mid * s_mid)
    outer = np.maximum(display.total_pixels - areas, 0.0) / (s_out * s_out)
    return candidates, middle + outer, areas


class TestCappedCostIsFlat:
    """Characterization: once ``s_mid`` hits ``scale_cap``, Eq. (1) is flat.

    ``s_mid = min(omega(e1) / omega*, cap)`` reaches the cap at
    ``e1 >= (cap * omega* - omega_0) / slope``.  From there every
    candidate ``e >= e1`` has ``s_out = cap = s_mid`` too, so
    ``cost(e) = (A(e) - A(e1)) / cap² + (T - A(e)) / cap² = (T - A(e1)) / cap²``
    for every candidate: the argmin, hence ``e2``, is decided by float
    rounding alone.  This pins that behaviour; it does not endorse it.
    """

    @staticmethod
    def threshold(model):
        omega_star = model.display.native_mar_deg
        return (model.scale_cap * omega_star - model.mar.omega_0) / model.mar.slope

    @pytest.mark.parametrize(
        "width,height,expected", [(1920, 2160, 3.96), (1280, 1600, 6.00)]
    )
    def test_threshold_from_mar_and_cap(self, width, height, expected):
        model = FoveationModel(DisplayGeometry(width, height))
        e_cap = self.threshold(model)
        assert e_cap == pytest.approx(expected, abs=0.01)
        omega_star = model.display.native_mar_deg
        assert model.mar.sampling_factor(e_cap + 1e-9, omega_star) >= model.scale_cap
        assert model.mar.sampling_factor(e_cap - 1e-3, omega_star) < model.scale_cap

    @pytest.mark.parametrize("width,height", [(1920, 2160), (1280, 1600)])
    def test_cost_spread_above_threshold_is_rounding(self, width, height):
        model = FoveationModel(DisplayGeometry(width, height))
        corner = model.display.corner_eccentricity_deg
        low = max(self.threshold(model), constants.MIN_ECCENTRICITY_DEG)
        rng = np.random.default_rng(17)
        eps = np.finfo(float).eps
        for _ in range(300):
            e1 = float(rng.uniform(low, corner - 0.5))
            gaze_x, gaze_y = rng.uniform(0, width), rng.uniform(0, height)
            _, cost, areas = _eq1_costs(model, e1, gaze_x, gaze_y)
            flat = (model.display.total_pixels - areas[0]) / model.scale_cap**2
            assert (cost.max() - cost.min()) / cost.min() <= 4 * eps
            assert np.abs(cost - flat).max() / flat <= 4 * eps

    def test_cost_below_threshold_is_not_flat(self):
        model = FoveationModel(DisplayGeometry(1280, 1600))
        e1 = constants.MIN_ECCENTRICITY_DEG
        assert e1 < self.threshold(model)
        _, cost, _ = _eq1_costs(model, e1, 640.0, 800.0)
        assert (cost.max() - cost.min()) / cost.min() > 1e-4
