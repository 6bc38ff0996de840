"""Unified composition + ATW (Eq. 4): the fused trilinear filter.

Sequential execution computes ``ATW(compose(layers))``; UCA reorders the
two linear filters (Eq. (4)) and processes them as one pass that samples
each input layer exactly once::

    Y(x) = sum_i w_i(x+s) * bilinear(L_i, x+s)
         = bilinear(sum_i w_i .* L_i, x+s)           (linearity)
         = ATW(compose(layers))(x)

The fused form starts from the *weighted* upsampled layers, so border
("bound") tiles blend two layers — a trilinear lookup — while
non-overlapping tiles reduce to a single bilinear lookup, exactly the
Fig. 11 datapath.  :func:`unified_filter` implements the fused pass;
its bit-level agreement with the sequential pipeline is the correctness
property UCA's design rests on, and is enforced by the test suite.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.graphics.atw import bilinear_sample
from repro.graphics.composition import layer_weights
from repro.graphics.frame import FrameLayers
from repro.graphics.lens import LensModel

__all__ = ["unified_filter", "classify_tiles_functional"]


def unified_filter(
    frame: FrameLayers,
    shift_x_px: float,
    shift_y_px: float,
    blend_px: float = 4.0,
    lens: LensModel | None = None,
) -> np.ndarray:
    """Fused composition+ATW output for one eye (Eq. 4).

    Equivalent to ``reproject(compose(frame), shift, lens)`` but with a
    single sampling stage over pre-weighted layers.
    """
    height, width = frame.native_height, frame.native_width
    weights = layer_weights(
        height, width, frame.gaze_x, frame.gaze_y, frame.r1, frame.r2, blend_px
    )
    grid_y, grid_x = np.meshgrid(
        np.arange(height, dtype=float), np.arange(width, dtype=float), indexing="ij"
    )
    xs = grid_x + shift_x_px
    ys = grid_y + shift_y_px
    if lens is not None:
        xs, ys = lens.distort(
            xs, ys, center_x=width / 2.0, center_y=height / 2.0,
            norm_radius=max(width, height) / 2.0,
        )
    output: np.ndarray | None = None
    for weight, layer in zip(weights, frame.layers):
        upsampled = layer.upsampled(height, width)
        w = weight[..., None] if upsampled.ndim == 3 else weight
        weighted = w * upsampled
        sampled = bilinear_sample(weighted, xs, ys)
        output = sampled if output is None else output + sampled
    assert output is not None
    return output


def classify_tiles_functional(
    frame: FrameLayers,
    tile_px: int = constants.UCA_TILE_PX,
    blend_px: float = 4.0,
) -> np.ndarray:
    """Boolean tile map: True where a tile needs the trilinear (bound) path.

    A tile is *bound* when more than one layer has non-zero weight inside
    it — i.e. it straddles a layer border and takes Fig. 11's trilinear
    path.  The timing model (:mod:`repro.core.uca`) charges every tile the
    same cycles, so it needs no classifier of its own.
    """
    weights = layer_weights(
        frame.native_height,
        frame.native_width,
        frame.gaze_x,
        frame.gaze_y,
        frame.r1,
        frame.r2,
        blend_px,
    )
    active = weights > 1e-9
    tiles_y = -(-frame.native_height // tile_px)
    tiles_x = -(-frame.native_width // tile_px)
    bound = np.zeros((tiles_y, tiles_x), dtype=bool)
    for ty in range(tiles_y):
        for tx in range(tiles_x):
            window = active[
                :, ty * tile_px : (ty + 1) * tile_px, tx * tile_px : (tx + 1) * tile_px
            ]
            layers_present = int(window.any(axis=(1, 2)).sum())
            bound[ty, tx] = layers_present > 1
    return bound
