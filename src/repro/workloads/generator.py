"""Per-frame workload stream generation.

Combines a :class:`~repro.workloads.apps.VRApp`, a motion trace and the
scene dynamics into the sequence of :class:`FrameWorkload` objects that
every system simulation consumes.  A workload stream is deterministic for a
given (app, seed, frame count) triple.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.errors import WorkloadError
from repro.gpu.perf_model import RenderWorkload
from repro.motion.traces import MotionSample, MotionTrace, generate_trace
from repro.workloads.apps import VRApp
from repro.workloads.scene_model import SceneComplexityModel

__all__ = ["FrameWorkload", "WorkloadGenerator", "memo_group"]


@dataclass(frozen=True)
class FrameWorkload:
    """Everything the pipelines need to simulate one frame.

    Attributes
    ----------
    index:
        Frame number.
    motion:
        The user state sampled for this frame.
    complexity:
        Scene complexity multiplier applied to the app's base workload.
    full:
        Full-frame (no partition) rendering workload.
    interactive_fraction:
        Share of frame time attributable to the nearest interactive
        objects — the portion the *static* collaborative design renders
        locally.
    content_complexity:
        Codec rate driver for this frame's remote layers.
    """

    index: int
    motion: MotionSample
    complexity: float
    full: RenderWorkload
    interactive_fraction: float
    content_complexity: float


class WorkloadGenerator:
    """Deterministic per-app workload stream factory.

    Parameters
    ----------
    app:
        The Table 3 title to model.
    seed:
        Master seed; motion, scene and interaction streams derive their
        own sub-seeds from it.
    frame_dt_ms:
        Nominal frame interval used to integrate the motion models
        (defaults to the 90 Hz frame budget).
    """

    def __init__(
        self,
        app: VRApp,
        seed: int = 0,
        frame_dt_ms: float = constants.FRAME_BUDGET_MS,
    ) -> None:
        if frame_dt_ms <= 0:
            raise WorkloadError(f"frame_dt_ms must be > 0, got {frame_dt_ms}")
        self.app = app
        self.seed = seed
        self.frame_dt_ms = frame_dt_ms

    def trace(self, n_frames: int) -> MotionTrace:
        """The motion trace underlying a stream of ``n_frames`` frames."""
        return generate_trace(
            n_frames=n_frames,
            frame_dt_ms=self.frame_dt_ms,
            panel_width_px=self.app.width_px,
            panel_height_px=self.app.height_px,
            seed=self.seed,
        )

    def generate(self, n_frames: int) -> list[FrameWorkload]:
        """Produce ``n_frames`` frames of deterministic workload."""
        if n_frames < 0:
            raise WorkloadError(f"n_frames must be >= 0, got {n_frames}")
        trace = self.trace(n_frames)
        scene = SceneComplexityModel(
            panel_width_px=self.app.width_px,
            panel_height_px=self.app.height_px,
            seed=self.seed + 101,
        )
        # Interactive share follows hotspot density and activity: the user
        # looking at / moving toward dense content is what creates the
        # foreground workload of the static design.
        f_lo, f_hi = self.app.interactive_fraction_range
        frames: list[FrameWorkload] = []
        for sample in trace:
            complexity = scene.step(sample)
            density = scene.hotspot_density(sample.gaze.x_px, sample.gaze.y_px)
            closeness = 0.6 * density + 0.4 * sample.activity
            interactive = f_lo + (f_hi - f_lo) * closeness
            frames.append(
                FrameWorkload(
                    index=sample.frame,
                    motion=sample,
                    complexity=complexity,
                    full=self.app.full_workload(complexity),
                    interactive_fraction=interactive,
                    content_complexity=self.app.content_complexity,
                )
            )
        return frames


def memo_group(app: VRApp, seed: int, n_frames: int) -> tuple:
    """Sort key that makes runs sharing generated inputs adjacent.

    ``(seed, n_frames, panel width, panel height, app name)``: runs with
    an equal group read one workload stream, and runs whose groups agree
    up to the app read one motion trace (:meth:`WorkloadGenerator.trace`
    depends on the seed, the frame count and the panel alone).  The
    batch engine runs its misses in this order, so the kernels' stream
    and gaze-kernel memos (:mod:`repro.sim.kernels`), one entry each,
    serve every reuse.
    """
    return (seed, n_frames, app.width_px, app.height_px, app.name)
