"""Motion substrate: 6-DoF pose algebra and trace synthesis."""

from repro.motion.dof import GazeDelta, GazePoint, Pose, PoseDelta
from repro.motion.traces import (
    GazeMotionConfig,
    HeadMotionConfig,
    MotionSample,
    MotionTrace,
    generate_trace,
)

__all__ = [
    "Pose",
    "PoseDelta",
    "GazePoint",
    "GazeDelta",
    "HeadMotionConfig",
    "GazeMotionConfig",
    "MotionSample",
    "MotionTrace",
    "generate_trace",
]
