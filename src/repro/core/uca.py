"""UCA: Unified Composition and ATW unit (paper Sec. 4.2 / 4.3).

UCA is the dedicated SoC block that replaces the GPU-executed composition
and ATW passes.  Its design rests on the algorithmic similarity of Eq. (3):
both composition (layer averaging + MSAA at layer borders) and ATW
(lens-distorted bilinear resampling) are linear filters, so reordering
them (Eq. (4)) fuses the two passes into a single *trilinear* filter that
samples the inputs once.

This module models the hardware unit:

* the frame is cut into 32x32-pixel tiles processed at a measured 532
  cycles per tile (Sec. 4.3), on :data:`~repro.constants.UCA_UNIT_COUNT`
  units clocked at the SoC frequency;
* every tile costs the same cycles, whether it is a **bound tile**
  (crossing a layer border: the fused trilinear path) or a
  **non-overlapping tile** (single layer: plain bilinear), per Fig. 11;
* because UCA starts on non-overlapping tiles *before* rendering and
  streaming complete ("asynchronously executing them across frame tiles
  prior to the rendering completion"), only the tail of the tile stream
  contributes to the frame's critical path;
* when a frame's remote layers miss their deadline, UCA reconstructs the
  frame from the previous layers at the new head position (the ATW
  fill-in behaviour).

The *functional* pixel-level filters live in
:mod:`repro.graphics.unified_filter`; this module is the timing/area side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import constants
from repro.errors import ConfigurationError

__all__ = ["UCAConfig", "UCAUnit"]


@dataclass(frozen=True)
class UCAConfig:
    """Hardware parameters of the UCA block (Table 2 / Sec. 4.3).

    Attributes
    ----------
    units:
        Number of UCA instances on the SoC.
    frequency_mhz:
        Clock of the units.
    cycles_per_tile:
        Measured cycles to process one 32x32 tile.
    tile_px:
        Tile side in pixels.
    critical_tail_fraction:
        Share of the tile stream that depends on the last-arriving input
        (the remote periphery around the fovea border) and therefore lands
        on the frame's critical path.  The rest is processed while the
        frame is still being rendered/streamed.
    """

    units: int = constants.UCA_UNIT_COUNT
    frequency_mhz: float = constants.DEFAULT_GPU_FREQ_MHZ
    cycles_per_tile: int = constants.UCA_CYCLES_PER_TILE
    tile_px: int = constants.UCA_TILE_PX
    critical_tail_fraction: float = 0.30

    def __post_init__(self) -> None:
        if self.units < 1:
            raise ConfigurationError(f"units must be >= 1, got {self.units}")
        if self.frequency_mhz <= 0 or self.cycles_per_tile <= 0 or self.tile_px <= 0:
            raise ConfigurationError("UCA hardware parameters must be positive")
        if not 0 < self.critical_tail_fraction <= 1:
            raise ConfigurationError(
                f"critical_tail_fraction must be in (0, 1], got {self.critical_tail_fraction}"
            )


class UCAUnit:
    """Timing model of the unified composition and ATW hardware."""

    def __init__(self, config: UCAConfig | None = None) -> None:
        self.config = config if config is not None else UCAConfig()

    # -- tile accounting ---------------------------------------------------------

    def tile_grid(self, width_px: int, height_px: int) -> tuple[int, int]:
        """Tiles per row/column for one eye's panel."""
        if width_px <= 0 or height_px <= 0:
            raise ConfigurationError("panel dimensions must be positive")
        tile = self.config.tile_px
        return (math.ceil(width_px / tile), math.ceil(height_px / tile))

    def tile_count(self, width_px: int, height_px: int, eyes: int = constants.EYES) -> int:
        """Total tiles per frame across both eyes."""
        tx, ty = self.tile_grid(width_px, height_px)
        return tx * ty * eyes

    # -- timing --------------------------------------------------------------------

    def occupancy_ms(self, width_px: int, height_px: int, eyes: int = constants.EYES) -> float:
        """Wall time the UCA block is busy producing one frame."""
        tiles = self.tile_count(width_px, height_px, eyes)
        cycles = tiles * self.config.cycles_per_tile
        return cycles / (self.config.frequency_mhz * 1e3) / self.config.units

    def critical_tail_ms(self, width_px: int, height_px: int, eyes: int = constants.EYES) -> float:
        """Latency UCA adds after the last input layer arrives."""
        return self.occupancy_ms(width_px, height_px, eyes) * self.config.critical_tail_fraction
