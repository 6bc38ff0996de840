"""Functional graphics pipeline: layers, lens, ATW, composition, fusion.

Its reader is the functional check of the paper's Eq. (4):
``tests/graphics/test_filters.py`` checks :func:`unified_filter` against
sequential compose + ATW, alongside :func:`classify_tiles_functional`.
The simulator times UCA with :mod:`repro.core.uca` instead.
"""

from repro.graphics.atw import bilinear_sample, reproject
from repro.graphics.composition import compose, layer_weights
from repro.graphics.frame import FrameLayers, LayerImage
from repro.graphics.lens import LensModel
from repro.graphics.unified_filter import classify_tiles_functional, unified_filter

__all__ = [
    "bilinear_sample",
    "reproject",
    "compose",
    "layer_weights",
    "FrameLayers",
    "LayerImage",
    "LensModel",
    "classify_tiles_functional",
    "unified_filter",
]
