"""Tests for layer images and the lens distortion model."""

import numpy as np
import pytest

from repro.graphics.frame import LayerImage
from repro.graphics.lens import LensModel
from repro.errors import ConfigurationError


class TestLens:
    def test_no_distortion_at_center(self):
        lens = LensModel()
        x, y = lens.distort(np.array([100.0]), np.array([100.0]), 100.0, 100.0, 100.0)
        assert x[0] == pytest.approx(100.0)
        assert y[0] == pytest.approx(100.0)

    def test_barrel_pushes_outward(self):
        lens = LensModel(k1=0.2, k2=0.0)
        x, _ = lens.distort(np.array([150.0]), np.array([100.0]), 100.0, 100.0, 100.0)
        assert x[0] > 150.0

    def test_distortion_grows_with_radius(self):
        lens = LensModel()
        xs = np.array([110.0, 150.0, 190.0])
        out_x, _ = lens.distort(xs, np.full(3, 100.0), 100.0, 100.0, 100.0)
        displacement = out_x - xs
        assert displacement[0] < displacement[1] < displacement[2]

    def test_invalid_norm_radius(self):
        with pytest.raises(ConfigurationError):
            LensModel().distort(np.array([1.0]), np.array([1.0]), 0, 0, 0)


class TestLayerImage:
    def test_upsample_shape(self):
        layer = LayerImage(np.ones((8, 8)), scale=2.0)
        up = layer.upsampled(16, 16)
        assert up.shape == (16, 16)
        assert np.allclose(up, 1.0)

    def test_upsample_preserves_mean_roughly(self):
        rng = np.random.default_rng(0)
        layer = LayerImage(rng.random((16, 16)), scale=2.0)
        up = layer.upsampled(32, 32)
        assert up.mean() == pytest.approx(layer.data.mean(), abs=0.05)

    def test_invalid_layer(self):
        with pytest.raises(ConfigurationError):
            LayerImage(np.ones(5))
        with pytest.raises(ConfigurationError):
            LayerImage(np.ones((4, 4)), scale=0.5)
