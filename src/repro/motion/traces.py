"""Synthetic head- and eye-motion trace generation.

The paper's controller exploits the strong correlation between user motion
and rendering workload (Sec. 4.1, Fig. 8).  Real HMD traces are not
available offline, so this module synthesises statistically realistic ones:

* **head motion** — an Ornstein-Uhlenbeck (OU) process on the 6-DoF
  velocity vector.  OU velocities are mean-reverting and temporally
  correlated, which matches measured head-motion spectra far better than
  white noise: users drift, sweep and settle.  Alternating *calm* and
  *active* phases reproduce the bursty exploration behaviour that makes
  static partitioning fail (Challenge I);
* **gaze motion** — a saccade/fixation model: gaze fixates for an
  exponentially distributed duration with small pursuit drift, then jumps
  (saccades) to a new target biased toward the panel centre.

All generation is deterministic for a given seed, so every experiment in
the repository is exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.motion.dof import GazePoint, Pose

__all__ = [
    "HeadMotionConfig",
    "GazeMotionConfig",
    "MotionSample",
    "MotionTrace",
    "generate_trace",
]


@dataclass(frozen=True)
class HeadMotionConfig:
    """Parameters of the OU-process head motion model.

    Attributes
    ----------
    rotation_intensity_deg_s:
        RMS angular speed (per axis) during *active* phases.
    translation_intensity_m_s:
        RMS linear speed (per axis) during active phases.
    calm_scale:
        Multiplier applied to both intensities during calm phases (< 1).
    mean_phase_s:
        Mean duration of a calm/active phase.
    correlation_time_s:
        OU mean-reversion time constant of the velocity process.
    """

    rotation_intensity_deg_s: float = 40.0
    translation_intensity_m_s: float = 0.25
    calm_scale: float = 0.25
    mean_phase_s: float = 2.0
    correlation_time_s: float = 0.4

    def __post_init__(self) -> None:
        if self.correlation_time_s <= 0 or self.mean_phase_s <= 0:
            raise WorkloadError("motion time constants must be positive")
        if not 0 <= self.calm_scale <= 1:
            raise WorkloadError(f"calm_scale must be in [0, 1], got {self.calm_scale}")


@dataclass(frozen=True)
class GazeMotionConfig:
    """Parameters of the saccade/fixation gaze model.

    Attributes
    ----------
    mean_fixation_s:
        Mean fixation duration before a saccade (~300 ms for natural
        viewing).
    pursuit_speed_px_s:
        RMS smooth-pursuit drift speed during fixations.
    center_bias:
        0..1 pull of saccade targets toward the panel centre.
    """

    mean_fixation_s: float = 0.3
    pursuit_speed_px_s: float = 60.0
    center_bias: float = 0.4

    def __post_init__(self) -> None:
        if self.mean_fixation_s <= 0:
            raise WorkloadError("mean_fixation_s must be positive")
        if not 0 <= self.center_bias <= 1:
            raise WorkloadError(f"center_bias must be in [0, 1], got {self.center_bias}")


@dataclass(frozen=True)
class MotionSample:
    """One frame's worth of user state.

    Attributes
    ----------
    frame:
        Frame index.
    time_ms:
        Nominal sample time in milliseconds from trace start.
    pose:
        6-DoF head pose.
    gaze:
        Fovea centre on the panel.
    activity:
        0..1 instantaneous motion activity level (normalised head speed);
        the workload model uses it to correlate scene complexity with
        motion, as Fig. 8 observes.
    """

    frame: int
    time_ms: float
    pose: Pose
    gaze: GazePoint
    activity: float


@dataclass
class MotionTrace:
    """A deterministic per-frame sequence of :class:`MotionSample`."""

    samples: list[MotionSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index: int) -> MotionSample:
        return self.samples[index]

    def __iter__(self):
        return iter(self.samples)


def generate_trace(
    n_frames: int,
    frame_dt_ms: float,
    panel_width_px: int,
    panel_height_px: int,
    seed: int = 0,
    head: HeadMotionConfig | None = None,
    gaze: GazeMotionConfig | None = None,
) -> MotionTrace:
    """Generate a deterministic motion trace.

    Parameters
    ----------
    n_frames:
        Number of frames to generate.
    frame_dt_ms:
        Nominal inter-frame interval used to integrate the motion models.
    panel_width_px, panel_height_px:
        Per-eye panel dimensions that bound the gaze point.
    seed:
        RNG seed; identical seeds produce identical traces.
    head, gaze:
        Model parameters; defaults reproduce natural exploration behaviour.
    """
    if n_frames < 0:
        raise WorkloadError(f"n_frames must be >= 0, got {n_frames}")
    if frame_dt_ms <= 0:
        raise WorkloadError(f"frame_dt_ms must be > 0, got {frame_dt_ms}")
    head_cfg = head if head is not None else HeadMotionConfig()
    gaze_cfg = gaze if gaze is not None else GazeMotionConfig()
    rng = np.random.default_rng(seed)
    dt_s = frame_dt_ms / 1000.0

    samples: list[MotionSample] = []
    pose = np.zeros(6)  # x, y, z, yaw, pitch, roll
    velocity = np.zeros(6)
    active = bool(rng.integers(0, 2))
    phase_left_s = float(rng.exponential(head_cfg.mean_phase_s))

    gaze_x = panel_width_px / 2.0
    gaze_y = panel_height_px / 2.0
    fixation_left_s = float(rng.exponential(gaze_cfg.mean_fixation_s))

    # OU discretisation: v' = v * decay + sigma * sqrt(1 - decay^2) * noise
    decay = math.exp(-dt_s / head_cfg.correlation_time_s)
    diffusion = math.sqrt(max(1.0 - decay * decay, 0.0))
    sigma = np.array(
        [head_cfg.translation_intensity_m_s] * 3
        + [head_cfg.rotation_intensity_deg_s] * 3
    )
    max_speed = float(np.linalg.norm(sigma[3:])) * 2.0  # activity normaliser
    # Hoist the per-frame ``sigma * scale * diffusion`` products: only two
    # scale values ever occur, and ``sigma * 1.0`` is bitwise ``sigma``.
    coeff_active = sigma * diffusion
    coeff_calm = (sigma * head_cfg.calm_scale) * diffusion

    for frame in range(n_frames):
        phase_left_s -= dt_s
        if phase_left_s <= 0:
            active = not active
            phase_left_s = float(rng.exponential(head_cfg.mean_phase_s))

        noise = rng.standard_normal(6)
        velocity = velocity * decay + (coeff_active if active else coeff_calm) * noise
        pose = pose + velocity * dt_s

        fixation_left_s -= dt_s
        if fixation_left_s <= 0:
            # Saccade: jump toward a fresh target, biased to the centre.
            target_x = rng.uniform(0, panel_width_px)
            target_y = rng.uniform(0, panel_height_px)
            bias = gaze_cfg.center_bias
            gaze_x = (1 - bias) * target_x + bias * panel_width_px / 2.0
            gaze_y = (1 - bias) * target_y + bias * panel_height_px / 2.0
            fixation_left_s = float(rng.exponential(gaze_cfg.mean_fixation_s))
        else:
            # Smooth pursuit drift inside the fixation.
            gaze_x += rng.normal(0, gaze_cfg.pursuit_speed_px_s) * dt_s
            gaze_y += rng.normal(0, gaze_cfg.pursuit_speed_px_s) * dt_s
        # Branchy clamps instead of np.clip: identical bits for finite
        # floats, without the per-frame numpy scalar dispatch cost.
        gaze_x = 0.0 if gaze_x < 0 else min(float(gaze_x), float(panel_width_px))
        gaze_y = 0.0 if gaze_y < 0 else min(float(gaze_y), float(panel_height_px))

        rotation_speed = float(np.linalg.norm(velocity[3:]))
        activity = min(1.0, rotation_speed / max_speed) if max_speed > 0 else 0.0
        samples.append(
            MotionSample(
                frame=frame,
                time_ms=frame * frame_dt_ms,
                pose=Pose(*pose.tolist()),
                gaze=GazePoint(gaze_x, gaze_y),
                activity=activity,
            )
        )
    return MotionTrace(samples=samples)
