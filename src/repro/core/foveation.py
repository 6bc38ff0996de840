"""Vision-perception foveation model (paper Sec. 3, Eq. 1).

This module implements the software layer's central mathematics:

* the **MAR model** — the minimum angle of resolution the human eye can
  resolve grows linearly with eccentricity, ``omega(e) = omega_0 + m * e``
  (after Guenter et al. 2012, the model the paper adopts);
* the **display geometry** — converting eccentricity in degrees into pixel
  radii and screen areas for a given per-eye panel and field of view;
* the **layer partition** — Q-VR reorganises the classic three foveated
  layers into a *local fovea* layer (radius ``e1``, native resolution) and
  two *remote periphery* layers (middle: ``e1..e2``, outer: ``e2..edge``)
  rendered at MAR-reduced resolutions;
* **Eq. (1)** — the adaptive second eccentricity ``*e2`` is the one that
  minimises the total transmitted periphery pixels
  ``P_middle + P_outer``, with per-layer sampling factors
  ``*s_i = omega_i / omega* = (m * e_i + omega_0) / omega*``.

The resulting :class:`PartitionPlan` carries every quantity the rest of the
system consumes: per-layer pixel counts, resolution scales, transmitted
pixel totals and the resolution-reduction metric reported in Fig. 13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.errors import FoveationError

__all__ = [
    "MARModel",
    "DisplayGeometry",
    "LayerPartition",
    "PartitionPlan",
    "FoveationModel",
]


@dataclass(frozen=True)
class MARModel:
    """Linear minimum-angle-of-resolution model ``omega(e) = omega_0 + m*e``.

    Parameters
    ----------
    slope:
        MAR growth per degree of eccentricity (``m`` in the paper), in
        degrees per degree.
    omega_0:
        MAR at the fovea centre, in degrees (finest resolvable angle).
    """

    slope: float = constants.MAR_SLOPE_DEG_PER_DEG
    omega_0: float = constants.FOVEA_MAR_DEG

    def __post_init__(self) -> None:
        if self.slope < 0 or self.omega_0 <= 0:
            raise FoveationError(
                f"MAR model requires slope >= 0 and omega_0 > 0, got "
                f"slope={self.slope}, omega_0={self.omega_0}"
            )

    def mar(self, eccentricity_deg: float) -> float:
        """Return the resolvable angle (degrees) at ``eccentricity_deg``."""
        if eccentricity_deg < 0:
            raise FoveationError(f"eccentricity must be >= 0, got {eccentricity_deg}")
        return self.omega_0 + self.slope * eccentricity_deg

    def sampling_factor(self, eccentricity_deg: float, display_mar_deg: float) -> float:
        """Return the linear down-sampling factor ``*s_i`` of Eq. (1).

        ``*s_i = omega_i / omega*`` where ``omega*`` is the display's native
        angular pixel pitch.  The factor is clamped to at least 1: near the
        fovea the display itself is the limit, so no further reduction is
        possible without perceptible loss.
        """
        if display_mar_deg <= 0:
            raise FoveationError(f"display MAR must be > 0, got {display_mar_deg}")
        return max(1.0, self.mar(eccentricity_deg) / display_mar_deg)


@dataclass(frozen=True)
class DisplayGeometry:
    """Per-eye HMD panel geometry, converting visual angle to pixels.

    Parameters
    ----------
    width_px, height_px:
        Native per-eye panel resolution.
    hfov_deg, vfov_deg:
        Per-eye field of view in degrees.
    """

    width_px: int
    height_px: int
    hfov_deg: float = constants.HMD_HFOV_DEG
    vfov_deg: float = constants.HMD_VFOV_DEG

    def __post_init__(self) -> None:
        if self.width_px <= 0 or self.height_px <= 0:
            raise FoveationError(
                f"panel must have positive dimensions, got "
                f"{self.width_px}x{self.height_px}"
            )
        if not 0 < self.hfov_deg <= 180 or not 0 < self.vfov_deg <= 180:
            raise FoveationError(
                f"FOV must be in (0, 180], got {self.hfov_deg}x{self.vfov_deg}"
            )

    @property
    def pixels_per_degree(self) -> float:
        """Average linear pixel density in pixels per degree of visual angle."""
        return 0.5 * (self.width_px / self.hfov_deg + self.height_px / self.vfov_deg)

    @property
    def native_mar_deg(self) -> float:
        """Angular pitch ``omega*`` of one native pixel, in degrees."""
        return 1.0 / self.pixels_per_degree

    @property
    def total_pixels(self) -> int:
        """Native per-eye pixel count."""
        return self.width_px * self.height_px

    @property
    def corner_eccentricity_deg(self) -> float:
        """Eccentricity (from panel centre) of the farthest panel corner."""
        half_diag_px = math.hypot(self.width_px / 2.0, self.height_px / 2.0)
        return half_diag_px / self.pixels_per_degree

    def radius_px(self, eccentricity_deg: float) -> float:
        """Convert an eccentricity in degrees to a pixel radius."""
        if eccentricity_deg < 0:
            raise FoveationError(f"eccentricity must be >= 0, got {eccentricity_deg}")
        return eccentricity_deg * self.pixels_per_degree

    def region_area_px(
        self,
        eccentricity_deg: float,
        gaze_x_px: float | None = None,
        gaze_y_px: float | None = None,
        samples: int = 256,
    ) -> float:
        """Area (px^2) of the eccentricity disc clipped to the panel.

        The disc of radius ``eccentricity_deg`` around the gaze point is
        intersected with the panel rectangle by numerically integrating the
        horizontal chord overlap over the vertical extent.  The integration
        is deterministic and accurate to well under 0.1 % at the default
        sample count.
        """
        gaze_x = self.width_px / 2.0 if gaze_x_px is None else gaze_x_px
        gaze_y = self.height_px / 2.0 if gaze_y_px is None else gaze_y_px
        radius = self.radius_px(eccentricity_deg)
        if radius == 0.0:
            return 0.0
        return _disc_rect_area(
            gaze_x, gaze_y, radius, self.width_px, self.height_px, samples
        )


_TRAPEZOID = getattr(np, "trapezoid", None) or np.trapz


def _disc_rect_area(
    cx: float, cy: float, r: float, width: float, height: float, samples: int
) -> float:
    """Area of a disc centred at ``(cx, cy)`` clipped to ``[0,w]x[0,h]``."""
    y_lo = max(0.0, cy - r)
    y_hi = min(height, cy + r)
    if y_hi <= y_lo:
        return 0.0
    ys = np.linspace(y_lo, y_hi, samples)
    half_chord = np.sqrt(np.maximum(r * r - (ys - cy) ** 2, 0.0))
    x_lo = np.maximum(0.0, cx - half_chord)
    x_hi = np.minimum(width, cx + half_chord)
    widths = np.maximum(x_hi - x_lo, 0.0)
    return float(_TRAPEZOID(widths, ys))


def _disc_rect_areas(
    cx: float,
    cy: float,
    radii: np.ndarray,
    width: float,
    height: float,
    samples: int = 129,
) -> np.ndarray:
    """Vectorised :func:`_disc_rect_area` over an array of radii.

    Each radius integrates the horizontal chord overlap on its own
    normalised vertical grid; all radii are evaluated in one broadcast
    pass, which is what keeps the per-frame Eq. (1) optimisation cheap.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1:
        raise FoveationError("radii must be a 1-D array")
    # Integrate each radius over its own clipped vertical extent so that
    # the trapezoid rule never straddles the panel border (which would
    # introduce O(step) error for discs larger than the panel).
    y_lo = np.maximum(0.0, cy - radii)
    y_hi = np.minimum(height, cy + radii)
    span = np.maximum(y_hi - y_lo, 0.0)
    t = np.linspace(0.0, 1.0, samples)
    ys = y_lo[:, None] + np.outer(span, t)
    dy2 = np.maximum(radii[:, None] ** 2 - (ys - cy) ** 2, 0.0)
    half = np.sqrt(dy2)
    x_lo = np.maximum(0.0, cx - half)
    x_hi = np.minimum(width, cx + half)
    widths = np.maximum(x_hi - x_lo, 0.0)
    return _TRAPEZOID(widths, ys, axis=1)


@dataclass(frozen=True)
class LayerPartition:
    """Raw geometric split of one eye's frame into fovea/middle/outer areas.

    All areas are in native pixels-squared *before* any resolution scaling.
    """

    e1_deg: float
    e2_deg: float
    fovea_area_px: float
    middle_area_px: float
    outer_area_px: float


@dataclass(frozen=True)
class PartitionPlan:
    """Complete per-frame foveated partition decision (both eyes).

    This is the object the partition engine hands to the local renderer, the
    remote channel setup and the metrics pipeline.  Pixel quantities are
    totals over both eyes.

    Attributes
    ----------
    e1_deg, e2_deg:
        Selected fovea and second eccentricities (degrees).
    middle_scale, outer_scale:
        Linear down-sampling factors ``*s_i`` (>= 1) for the remote layers.
    fovea_pixels:
        Native-resolution pixels rendered locally.
    middle_pixels, outer_pixels:
        *Transmitted* (already down-sampled) pixels of the remote layers.
    native_pixels:
        Native panel pixels over both eyes (the no-foveation reference).
    """

    e1_deg: float
    e2_deg: float
    middle_scale: float
    outer_scale: float
    fovea_pixels: float
    middle_pixels: float
    outer_pixels: float
    native_pixels: float

    @property
    def periphery_pixels(self) -> float:
        """Transmitted periphery pixels ``P_middle + P_outer`` of Eq. (1)."""
        return self.middle_pixels + self.outer_pixels

    @property
    def effective_pixels(self) -> float:
        """Total pixels actually rendered anywhere (local + remote layers)."""
        return self.fovea_pixels + self.periphery_pixels

    @property
    def resolution_reduction(self) -> float:
        """Fraction of native resolution eliminated (Fig. 13 right axis)."""
        return 1.0 - self.effective_pixels / self.native_pixels

    @property
    def fovea_fraction(self) -> float:
        """Fraction of the native frame area covered by the local fovea."""
        return self.fovea_pixels / self.native_pixels

    @property
    def covers_full_frame(self) -> bool:
        """True when the fovea layer covers (essentially) the whole panel."""
        return self.periphery_pixels <= 1e-9


class FoveationModel:
    """Combined MAR + display model implementing Q-VR's layer partition.

    Parameters
    ----------
    display:
        Per-eye panel geometry.
    mar:
        Human visual acuity model; defaults to the paper's parameters.
    eyes:
        Number of eyes rendered (2 for a stereo HMD).

    Examples
    --------
    >>> display = DisplayGeometry(1920, 2160)
    >>> model = FoveationModel(display)
    >>> plan = model.plan(e1_deg=15.0)
    >>> 0.0 < plan.fovea_fraction < 1.0
    True
    >>> plan.e2_deg >= plan.e1_deg
    True
    """

    def __init__(
        self,
        display: DisplayGeometry,
        mar: MARModel | None = None,
        eyes: int = constants.EYES,
        scale_cap: float = 2.0,
    ) -> None:
        if eyes < 1:
            raise FoveationError(f"eyes must be >= 1, got {eyes}")
        if scale_cap < 1.0:
            raise FoveationError(f"scale_cap must be >= 1, got {scale_cap}")
        self.display = display
        self.mar = mar if mar is not None else MARModel()
        self.eyes = eyes
        #: Practical upper bound on the linear down-sampling factor.  The
        #: raw MAR model admits very coarse periphery on a wide-FOV HMD;
        #: production foveated pipelines (including the VRS hardware the
        #: paper's server side uses) cap the reduction to bound
        #: reconstruction artefacts, and the paper's reported data/
        #: resolution reductions (Fig. 13: 85 % data, 41 % resolution on
        #: average) correspond to a conservative cap of ~2x linear.
        self.scale_cap = scale_cap

    # -- layer geometry ----------------------------------------------------

    def partition_areas(
        self,
        e1_deg: float,
        e2_deg: float,
        gaze_x_px: float | None = None,
        gaze_y_px: float | None = None,
    ) -> LayerPartition:
        """Split one eye's panel into fovea/middle/outer native areas."""
        if e2_deg < e1_deg:
            raise FoveationError(f"e2 ({e2_deg}) must be >= e1 ({e1_deg})")
        area_e1 = self.display.region_area_px(e1_deg, gaze_x_px, gaze_y_px)
        area_e2 = self.display.region_area_px(e2_deg, gaze_x_px, gaze_y_px)
        total = float(self.display.total_pixels)
        return LayerPartition(
            e1_deg=e1_deg,
            e2_deg=e2_deg,
            fovea_area_px=area_e1,
            middle_area_px=max(area_e2 - area_e1, 0.0),
            outer_area_px=max(total - area_e2, 0.0),
        )

    # -- Eq. (1): periphery quality / *e2 optimisation ----------------------

    def layer_scales(self, e1_deg: float, e2_deg: float) -> tuple[float, float]:
        """Return ``(*s_middle, *s_outer)`` sampling factors per Eq. (1).

        Each periphery layer is sampled to just satisfy the MAR at its inner
        (most acuity-demanding) eccentricity, bounded by :attr:`scale_cap`.
        Capping only *increases* layer resolution relative to the raw MAR
        bound, so capped plans always satisfy the perception constraint.
        """
        omega_star = self.display.native_mar_deg
        middle = min(self.mar.sampling_factor(e1_deg, omega_star), self.scale_cap)
        outer = min(self.mar.sampling_factor(e2_deg, omega_star), self.scale_cap)
        return middle, outer

    def periphery_pixels(
        self,
        e1_deg: float,
        e2_deg: float,
        gaze_x_px: float | None = None,
        gaze_y_px: float | None = None,
    ) -> tuple[float, float]:
        """Transmitted (down-sampled) middle and outer pixels, both eyes."""
        partition = self.partition_areas(e1_deg, e2_deg, gaze_x_px, gaze_y_px)
        s_mid, s_out = self.layer_scales(e1_deg, e2_deg)
        middle = self.eyes * partition.middle_area_px / (s_mid * s_mid)
        outer = self.eyes * partition.outer_area_px / (s_out * s_out)
        return middle, outer

    def optimize_e2(
        self,
        e1_deg: float,
        gaze_x_px: float | None = None,
        gaze_y_px: float | None = None,
        step_deg: float = 0.5,
    ) -> float:
        """Select ``*e2 = argmin (P_middle + P_outer)`` — paper Eq. (1).

        A deterministic grid search over ``[e1, corner]`` at ``step_deg``
        resolution; the objective is smooth and unimodal in practice, so the
        grid minimum is within one step of the true optimum.
        """
        if step_deg <= 0:
            raise FoveationError(f"step_deg must be > 0, got {step_deg}")
        e_max = self.display.corner_eccentricity_deg
        if e1_deg >= e_max:
            return e1_deg
        candidates = np.arange(e1_deg, e_max + step_deg, step_deg)
        candidates = np.minimum(candidates, e_max)

        gaze_x = self.display.width_px / 2.0 if gaze_x_px is None else gaze_x_px
        gaze_y = self.display.height_px / 2.0 if gaze_y_px is None else gaze_y_px
        ppd = self.display.pixels_per_degree
        areas = _disc_rect_areas(
            gaze_x, gaze_y, candidates * ppd, self.display.width_px, self.display.height_px
        )
        area_e1 = areas[0]
        total = float(self.display.total_pixels)

        omega_star = self.display.native_mar_deg
        s_mid = min(self.mar.sampling_factor(e1_deg, omega_star), self.scale_cap)
        s_out = np.minimum(
            (self.mar.omega_0 + self.mar.slope * candidates) / omega_star,
            self.scale_cap,
        )
        s_out = np.maximum(s_out, 1.0)

        middle = np.maximum(areas - area_e1, 0.0) / (s_mid * s_mid)
        outer = np.maximum(total - areas, 0.0) / (s_out * s_out)
        cost = middle + outer
        return float(candidates[int(np.argmin(cost))])

    # -- full plan -----------------------------------------------------------

    def plan(
        self,
        e1_deg: float,
        e2_deg: float | None = None,
        gaze_x_px: float | None = None,
        gaze_y_px: float | None = None,
    ) -> PartitionPlan:
        """Build the complete :class:`PartitionPlan` for one frame.

        When ``e2_deg`` is omitted it is chosen adaptively via
        :meth:`optimize_e2` (the Q-VR behaviour); passing an explicit value
        reproduces the classic fixed-layer foveated rendering.
        """
        if e1_deg < 0:
            raise FoveationError(f"e1 must be >= 0, got {e1_deg}")
        e1 = min(e1_deg, self.display.corner_eccentricity_deg)
        e2 = self.optimize_e2(e1, gaze_x_px, gaze_y_px) if e2_deg is None else e2_deg
        if e2 < e1:
            raise FoveationError(f"e2 ({e2}) must be >= e1 ({e1})")
        e2 = min(e2, self.display.corner_eccentricity_deg)

        partition = self.partition_areas(e1, e2, gaze_x_px, gaze_y_px)
        s_mid, s_out = self.layer_scales(e1, e2)
        middle_px = self.eyes * partition.middle_area_px / (s_mid * s_mid)
        outer_px = self.eyes * partition.outer_area_px / (s_out * s_out)
        return PartitionPlan(
            e1_deg=e1,
            e2_deg=e2,
            middle_scale=s_mid,
            outer_scale=s_out,
            fovea_pixels=self.eyes * partition.fovea_area_px,
            middle_pixels=middle_px,
            outer_pixels=outer_px,
            native_pixels=float(self.eyes * self.display.total_pixels),
        )
