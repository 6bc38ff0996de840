"""Tethered high-quality VR applications (paper Table 1, Figs. 3 and 5).

The motivation study (Sec. 2.3) runs five photorealistic Windows VR apps —
Foveated3D, Viking Village, Nature, Sponza and San Miguel — on a Gen 9
Intel mobile processor, characterising the *static* collaborative design:
the share ``f`` of frame time spent rendering the pre-defined interactive
objects, the local render latency range, and the compressed background
sizes / remote fetch times.

These apps are modelled directly by their Table 1 characteristics.  The
interactive share ``f`` varies with the user's interaction *closeness*
(Fig. 5: approaching the Nature tree raises its render cost from 12 ms to
26 ms) through a level-of-detail model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.errors import WorkloadError

__all__ = ["TetheredApp", "TETHERED_APPS", "TABLE1_ORDER"]


@dataclass(frozen=True)
class TetheredApp:
    """A Table 1 application on the paper's physical test platform.

    Attributes
    ----------
    name:
        Table 1 label.
    width_px, height_px:
        Per-eye resolution (all Table 1 apps run at 1920x2160).
    triangles:
        Scene triangle count from Table 1.
    interactive_objects:
        Human-readable description of the pre-defined interactive set.
    f_range:
        (min, max) share of frame time for the interactive objects.
    full_frame_ms:
        Full-frame local render time on the Gen 9 test platform.
    content_complexity:
        Codec rate driver, fitted to the Table 1 background sizes.
    """

    name: str
    width_px: int
    height_px: int
    triangles: float
    interactive_objects: str
    f_range: tuple[float, float]
    full_frame_ms: float
    content_complexity: float

    def __post_init__(self) -> None:
        lo, hi = self.f_range
        if not 0 <= lo <= hi <= 1:
            raise WorkloadError(f"{self.name}: invalid f range {self.f_range}")
        if self.full_frame_ms <= 0:
            raise WorkloadError(f"{self.name}: full_frame_ms must be positive")

    @property
    def pixels_per_frame(self) -> float:
        """Native stereo output pixels per frame."""
        return float(self.width_px * self.height_px * constants.EYES)

    def interactive_fraction(self, closeness: float) -> float:
        """Interactive workload share ``f`` at an interaction closeness.

        ``closeness`` in [0, 1]: 0 = far from every interactive object
        (minimum detail), 1 = touching distance (maximum detail).  The LOD
        response is superlinear in closeness — detail pops in quickly as
        the user approaches, which is what makes the static design's
        worst case so much larger than its average (Challenge I).
        """
        if not 0.0 <= closeness <= 1.0:
            raise WorkloadError(f"closeness must be in [0, 1], got {closeness}")
        lo, hi = self.f_range
        return lo + (hi - lo) * closeness**1.5

    def interactive_latency_ms(self, closeness: float) -> float:
        """Local render latency of the interactive objects (static design)."""
        return self.interactive_fraction(closeness) * self.full_frame_ms


TETHERED_APPS: dict[str, TetheredApp] = {
    app.name: app
    for app in (
        TetheredApp(
            name="Foveated3D", width_px=1920, height_px=2160, triangles=231e3,
            interactive_objects="9 Chess", f_range=(0.16, 0.52),
            full_frame_ms=128.0, content_complexity=0.72,
        ),
        TetheredApp(
            name="Viking", width_px=1920, height_px=2160, triangles=2.8e6,
            interactive_objects="1 Carriage", f_range=(0.10, 0.13),
            full_frame_ms=123.0, content_complexity=0.40,
        ),
        TetheredApp(
            name="Nature", width_px=1920, height_px=2160, triangles=1.4e6,
            interactive_objects="1 Tree", f_range=(0.10, 0.24),
            full_frame_ms=110.0, content_complexity=0.29,
        ),
        TetheredApp(
            name="Sponza", width_px=1920, height_px=2160, triangles=282e3,
            interactive_objects="Lion Shield", f_range=(0.001, 0.20),
            full_frame_ms=60.0, content_complexity=0.42,
        ),
        TetheredApp(
            name="San Miguel", width_px=1920, height_px=2160, triangles=4.2e6,
            interactive_objects="4 Chairs, 1 Table", f_range=(0.06, 0.15),
            full_frame_ms=93.0, content_complexity=0.50,
        ),
    )
}

#: Table 1 presentation order.
TABLE1_ORDER: tuple[str, ...] = (
    "Foveated3D",
    "Viking",
    "Nature",
    "Sponza",
    "San Miguel",
)
