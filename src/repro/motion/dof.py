"""Six-degree-of-freedom pose algebra for HMD head tracking.

A head pose is position (x, y, z) in metres plus orientation (yaw, pitch,
roll) in degrees.  The Q-VR hardware consumes *deltas* between consecutive
frames (Sec. 4.1: "6 bits for degrees of freedom changes on HMD"), so the
module centres on :class:`Pose` and :class:`PoseDelta` with subtraction,
magnitude and per-axis threshold tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Pose", "PoseDelta", "GazePoint", "GazeDelta"]

_DOF_NAMES = ("x", "y", "z", "yaw", "pitch", "roll")


@dataclass(frozen=True)
class Pose:
    """A 6-DoF head pose: translation in metres, rotation in degrees."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    yaw: float = 0.0
    pitch: float = 0.0
    roll: float = 0.0

    def delta_from(self, previous: "Pose") -> "PoseDelta":
        """Per-axis change from ``previous`` to this pose."""
        return PoseDelta(
            dx=self.x - previous.x,
            dy=self.y - previous.y,
            dz=self.z - previous.z,
            dyaw=_wrap_angle(self.yaw - previous.yaw),
            dpitch=_wrap_angle(self.pitch - previous.pitch),
            droll=_wrap_angle(self.roll - previous.roll),
        )


@dataclass(frozen=True)
class PoseDelta:
    """Per-axis 6-DoF change between two consecutive frames."""

    dx: float = 0.0
    dy: float = 0.0
    dz: float = 0.0
    dyaw: float = 0.0
    dpitch: float = 0.0
    droll: float = 0.0

    def exceeds(
        self, translation_threshold_m: float, rotation_threshold_deg: float
    ) -> tuple[bool, bool, bool, bool, bool, bool]:
        """Per-axis "moved beyond threshold" flags, in DoF order.

        This is the 6-bit signal LIWC's motion codec quantises.
        """
        return (
            abs(self.dx) > translation_threshold_m,
            abs(self.dy) > translation_threshold_m,
            abs(self.dz) > translation_threshold_m,
            abs(self.dyaw) > rotation_threshold_deg,
            abs(self.dpitch) > rotation_threshold_deg,
            abs(self.droll) > rotation_threshold_deg,
        )


@dataclass(frozen=True)
class GazePoint:
    """Gaze (fovea centre) position on the panel, in pixels."""

    x_px: float
    y_px: float

    def delta_from(self, previous: "GazePoint") -> "GazeDelta":
        """Gaze movement from ``previous`` to this point."""
        return GazeDelta(dx_px=self.x_px - previous.x_px, dy_px=self.y_px - previous.y_px)


@dataclass(frozen=True)
class GazeDelta:
    """Fovea-centre movement between two frames, in pixels."""

    dx_px: float = 0.0
    dy_px: float = 0.0

    @property
    def magnitude_px(self) -> float:
        """Euclidean gaze movement in pixels."""
        return math.hypot(self.dx_px, self.dy_px)

    @property
    def direction_quadrant(self) -> int:
        """Quadrant (0..3) of the movement direction.

        0 = +x/+y, 1 = -x/+y, 2 = -x/-y, 3 = +x/-y.  Used by the motion
        codec's 2 direction bits.
        """
        if self.dx_px >= 0 and self.dy_px >= 0:
            return 0
        if self.dx_px < 0 and self.dy_px >= 0:
            return 1
        if self.dx_px < 0 and self.dy_px < 0:
            return 2
        return 3


def _wrap_angle(angle_deg: float) -> float:
    """Wrap an angle difference into (-180, 180] degrees."""
    wrapped = (angle_deg + 180.0) % 360.0 - 180.0
    if wrapped == -180.0:
        return 180.0
    return wrapped
