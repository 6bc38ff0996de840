"""LIWC: Lightweight Interaction-Aware Workload Controller (paper Sec. 4.1).

LIWC is the paper's Q-learning-style hardware controller that selects the
fovea eccentricity ``e1`` for every frame.  It is built from the four
components of Fig. 9:

1. a **motion codec** that quantises the user's inter-frame motion into a
   10-bit index — 6 bits for per-axis 6-DoF changes on the HMD and 4 bits
   for the fovea-centre movement;
2. an SRAM **motion-to-eccentricity mapping table** holding a 16-bit
   half-precision *latency gradient offset* for every (motion, delta-
   eccentricity) pair.  With 10 motion bits and a 5-bit action field the
   table depth is 2^15 = 32768 entries = 64 KB, matching the paper's
   overhead analysis (Sec. 4.3);
3. a **latency predictor** implementing Eq. (2): it estimates the frame's
   local and remote latencies *before rendering completes* from
   intermediate hardware data — the triangle count observed during render
   setup and the network ACK throughput;
4. a **runtime updater** that refines both the table (reward
   ``g <- (1 - alpha) * g' + alpha * delta_latency``) and the predictor's
   hardware parameters (GPU throughput, stream rate, path overhead) from
   measured latencies.

Selection rule: for the current motion index and the predicted
local/remote imbalance ``diff = T_remote - T_local``, LIWC picks the delta
eccentricity whose stored gradient offset comes closest to cancelling the
imbalance (``argmin |diff + g[motion, action]|``), then clamps ``e1`` to
the legal range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.errors import ControllerError
from repro.motion.dof import GazeDelta, PoseDelta

__all__ = [
    "MotionCodec",
    "MappingTable",
    "LatencyPredictor",
    "LIWCConfig",
    "LIWC",
    "ACTIONS_DEG",
]

#: Eccentricity delta tags: integer degrees in [-5, +5] (Sec. 4.1).
ACTIONS_DEG: tuple[int, ...] = tuple(range(-5, 6))

#: Bits allocated to the action field (11 actions padded into 5 bits,
#: giving the 2^15-deep table of the paper's overhead analysis).
_ACTION_BITS = 5

#: Bits of the motion index (6 DoF bits + 4 gaze bits).
_MOTION_BITS = 10


class MotionCodec:
    """Quantises inter-frame motion into the 10-bit LIWC table index.

    Encoding (Sec. 4.1): one bit per 6-DoF axis ("changed beyond
    threshold"), 2 bits for the gaze movement quadrant and 2 bits for the
    gaze movement magnitude bucket.
    """

    def __init__(
        self,
        translation_threshold_m: float = 0.004,
        rotation_threshold_deg: float = 0.35,
        gaze_magnitude_bounds_px: tuple[float, float, float] = (10.0, 60.0, 200.0),
    ) -> None:
        if translation_threshold_m <= 0 or rotation_threshold_deg <= 0:
            raise ControllerError("motion thresholds must be positive")
        b1, b2, b3 = gaze_magnitude_bounds_px
        if not 0 < b1 < b2 < b3:
            raise ControllerError(
                f"gaze magnitude bounds must be increasing, got {gaze_magnitude_bounds_px}"
            )
        self.translation_threshold_m = translation_threshold_m
        self.rotation_threshold_deg = rotation_threshold_deg
        self.gaze_magnitude_bounds_px = gaze_magnitude_bounds_px

    @property
    def index_space(self) -> int:
        """Number of distinct motion codes (2^10)."""
        return 1 << _MOTION_BITS

    def gaze_magnitude_bucket(self, magnitude_px: float) -> int:
        """2-bit gaze movement magnitude bucket (0 = still .. 3 = saccade)."""
        for bucket, bound in enumerate(self.gaze_magnitude_bounds_px):
            if magnitude_px < bound:
                return bucket
        return 3

    def encode(self, pose_delta: PoseDelta, gaze_delta: GazeDelta) -> int:
        """Return the 10-bit motion code for one frame's motion deltas."""
        bits = pose_delta.exceeds(
            self.translation_threshold_m, self.rotation_threshold_deg
        )
        code = 0
        for bit in bits:
            code = (code << 1) | int(bit)
        code = (code << 2) | gaze_delta.direction_quadrant
        code = (code << 2) | self.gaze_magnitude_bucket(gaze_delta.magnitude_px)
        return code


class MappingTable:
    """The motion-to-eccentricity SRAM table of latency gradient offsets.

    Entries are stored as IEEE half-precision floats (the paper's 16-bit
    representation), organised as ``table[motion_code, action_index]``.

    The table is initialised with an optimistic physical prior: action
    ``a`` (degrees) is expected to change ``T_remote - T_local`` by
    ``-a * prior_slope`` — growing the fovea raises local latency and
    shrinks the transmitted periphery.
    """

    def __init__(self, motion_codes: int = 1 << _MOTION_BITS, prior_slope_ms_per_deg: float = 0.6) -> None:
        if motion_codes < 1:
            raise ControllerError(f"motion_codes must be >= 1, got {motion_codes}")
        self.motion_codes = motion_codes
        self.prior_slope_ms_per_deg = prior_slope_ms_per_deg
        actions = np.array(ACTIONS_DEG, dtype=np.float16)
        self._table = np.tile(
            (-prior_slope_ms_per_deg * actions).astype(np.float16),
            (motion_codes, 1),
        )

    @property
    def depth(self) -> int:
        """Addressable entries (motion codes x padded action space)."""
        return self.motion_codes * (1 << _ACTION_BITS)

    @property
    def size_bytes(self) -> int:
        """SRAM size in bytes (2 bytes per fp16 entry over the full depth)."""
        return self.depth * 2

    def gradients(self, motion_code: int) -> np.ndarray:
        """The 11 gradient offsets for one motion code (as float32)."""
        self._check_code(motion_code)
        return self._table[motion_code].astype(np.float32)

    def lookup(self, motion_code: int, imbalance_ms: float) -> int:
        """Select the action whose gradient best cancels the imbalance.

        Returns the index into :data:`ACTIONS_DEG` minimising
        ``|imbalance + gradient|``; ties break toward the smallest
        eccentricity change to avoid hunting.
        """
        gradients = self.gradients(motion_code)
        residual = np.abs(imbalance_ms + gradients)
        best = np.flatnonzero(residual <= residual.min() + 1e-9)
        magnitudes = np.abs(np.array(ACTIONS_DEG)[best])
        return int(best[int(np.argmin(magnitudes))])

    def update(self, motion_code: int, action_index: int, observed_delta_ms: float, alpha: float) -> None:
        """Reward update: ``g <- (1 - alpha) * g' + alpha * delta_latency``."""
        self._check_code(motion_code)
        if not 0 <= action_index < len(ACTIONS_DEG):
            raise ControllerError(f"action index out of range: {action_index}")
        if not 0 < alpha <= 1:
            raise ControllerError(f"alpha must be in (0, 1], got {alpha}")
        old = float(self._table[motion_code, action_index])
        new = (1.0 - alpha) * old + alpha * observed_delta_ms
        self._table[motion_code, action_index] = np.float16(new)

    def _check_code(self, motion_code: int) -> None:
        if not 0 <= motion_code < self.motion_codes:
            raise ControllerError(
                f"motion code {motion_code} outside [0, {self.motion_codes})"
            )


@dataclass
class LatencyPredictor:
    """Eq. (2) latency predictor driven by intermediate hardware data.

    ``T_local = triangles * %fovea / P(GPU_m)`` and
    ``T_remote = DataSize(M + O) / Throughput (+ path overhead)``.

    ``P(GPU_m)``, the effective bits-per-pixel of the periphery streams and
    the fixed path overhead are EWMA estimates refined by the runtime
    updater from measured frames; the network throughput comes from the
    ACK monitor.

    Attributes
    ----------
    gpu_throughput:
        Estimated ``P(GPU_m)`` in (triangles * fovea-fraction) per ms.
    bits_per_pixel:
        Estimated compressed rate of the periphery streams.
    path_overhead_ms:
        Estimated fixed remote-path cost (propagation, codec).
    ewma_alpha:
        Smoothing factor of the online estimates.
    """

    gpu_throughput: float = 20_000.0
    bits_per_pixel: float = 0.6
    path_overhead_ms: float = 4.0
    ewma_alpha: float = 0.25

    def predict_local_ms(self, triangles: float, fovea_fraction: float) -> float:
        """``T_local`` per Eq. (2) for an observed render-setup state."""
        if triangles < 0 or not 0 <= fovea_fraction <= 1:
            raise ControllerError("invalid predictor inputs")
        return triangles * fovea_fraction / max(self.gpu_throughput, 1e-9)

    def predict_remote_ms(self, periphery_pixels: float, ack_throughput_bytes_per_ms: float) -> float:
        """``T_remote`` per Eq. (2) for the planned periphery payload."""
        if periphery_pixels < 0 or ack_throughput_bytes_per_ms <= 0:
            raise ControllerError("invalid predictor inputs")
        payload = periphery_pixels * self.bits_per_pixel / constants.BITS_PER_BYTE
        return payload / ack_throughput_bytes_per_ms + self.path_overhead_ms

    # -- runtime updater hooks -------------------------------------------------

    def observe_local(self, triangles: float, fovea_fraction: float, measured_ms: float) -> None:
        """Refine ``P(GPU_m)`` from a measured local render time."""
        if measured_ms <= 0:
            return
        observed = triangles * fovea_fraction / measured_ms
        self.gpu_throughput = self._ewma(self.gpu_throughput, observed)

    def observe_remote(
        self,
        periphery_pixels: float,
        payload_bytes: float,
        measured_ms: float,
        ack_throughput_bytes_per_ms: float,
    ) -> None:
        """Refine the stream rate and path overhead from a measured fetch."""
        if periphery_pixels > 0 and payload_bytes > 0:
            observed_bpp = payload_bytes * constants.BITS_PER_BYTE / periphery_pixels
            self.bits_per_pixel = self._ewma(self.bits_per_pixel, observed_bpp)
        if measured_ms > 0 and ack_throughput_bytes_per_ms > 0:
            transmit = payload_bytes / ack_throughput_bytes_per_ms
            overhead = max(measured_ms - transmit, 0.0)
            self.path_overhead_ms = self._ewma(self.path_overhead_ms, overhead)

    def _ewma(self, old: float, new: float) -> float:
        return (1.0 - self.ewma_alpha) * old + self.ewma_alpha * new


@dataclass(frozen=True)
class LIWCConfig:
    """Tunables of the LIWC controller.

    Attributes
    ----------
    reward_alpha:
        The paper's reward parameter ``alpha``.
    min_e1_deg, max_e1_deg:
        Legal eccentricity range (Table 4 saturates at 5 and 90 degrees).
    prior_slope_ms_per_deg:
        Initial per-degree latency-difference slope of the mapping table.
    deadband_ms:
        Imbalance below which LIWC holds the current eccentricity; models
        the controller's hysteresis against jitter-induced hunting.
    """

    reward_alpha: float = 0.15
    min_e1_deg: float = constants.MIN_ECCENTRICITY_DEG
    max_e1_deg: float = constants.MAX_ECCENTRICITY_DEG
    prior_slope_ms_per_deg: float = 0.6
    deadband_ms: float = 0.35

    def __post_init__(self) -> None:
        if not 0 < self.reward_alpha <= 1:
            raise ControllerError(f"reward_alpha must be in (0, 1], got {self.reward_alpha}")
        if not 0 < self.min_e1_deg <= self.max_e1_deg:
            raise ControllerError("invalid eccentricity bounds")
        if self.deadband_ms < 0:
            raise ControllerError("deadband must be >= 0")


@dataclass
class _PendingDecision:
    """State carried between select() and observe() for one frame."""

    motion_code: int
    action_index: int
    predicted_diff_ms: float


class LIWC:
    """The assembled controller: codec + table + predictor + updater.

    Typical per-frame protocol (mirroring the hardware pipeline)::

        e1 = liwc.select(pose_delta, gaze_delta, triangles,
                         fovea_fraction_fn, periphery_pixels_fn,
                         ack_throughput)
        ... frame renders with e1 ...
        liwc.observe(measured_local_ms, measured_remote_ms, ...)

    ``fovea_fraction_fn`` / ``periphery_pixels_fn`` map a candidate ``e1``
    to plan geometry; in hardware these are the partition engine's lookup
    tables.
    """

    def __init__(self, config: LIWCConfig | None = None, codec: MotionCodec | None = None) -> None:
        self.config = config if config is not None else LIWCConfig()
        self.codec = codec if codec is not None else MotionCodec()
        self.table = MappingTable(
            motion_codes=self.codec.index_space,
            prior_slope_ms_per_deg=self.config.prior_slope_ms_per_deg,
        )
        self.predictor = LatencyPredictor()
        self.e1_deg: float = self.config.min_e1_deg
        self._pending: _PendingDecision | None = None
        self._last_diff_ms: float | None = None

    def reset(self, e1_deg: float | None = None) -> None:
        """Reset the controller state (table contents are preserved)."""
        self.e1_deg = self.config.min_e1_deg if e1_deg is None else e1_deg
        self._pending = None
        self._last_diff_ms = None

    # -- per-frame selection ---------------------------------------------------

    def select(
        self,
        pose_delta: PoseDelta,
        gaze_delta: GazeDelta,
        triangles: float,
        fovea_fraction: float,
        periphery_pixels: float,
        ack_throughput_bytes_per_ms: float,
    ) -> float:
        """Choose this frame's ``e1`` from hardware-visible state.

        Parameters
        ----------
        pose_delta, gaze_delta:
            Motion deltas since the previous frame (from the sensors).
        triangles:
            Triangle count observed during render setup.
        fovea_fraction, periphery_pixels:
            Plan geometry at the *current* eccentricity.
        ack_throughput_bytes_per_ms:
            The ACK monitor's link-throughput estimate.
        """
        t_local = self.predictor.predict_local_ms(triangles, fovea_fraction)
        t_remote = self.predictor.predict_remote_ms(
            periphery_pixels, ack_throughput_bytes_per_ms
        )
        diff = t_remote - t_local
        motion_code = self.codec.encode(pose_delta, gaze_delta)

        if abs(diff) <= self.config.deadband_ms:
            action_index = ACTIONS_DEG.index(0)
        else:
            action_index = self.table.lookup(motion_code, diff)
        self._pending = _PendingDecision(
            motion_code=motion_code,
            action_index=action_index,
            predicted_diff_ms=diff,
        )
        # Branchy clamp instead of np.clip: identical bits for finite
        # floats, without the per-frame numpy scalar dispatch cost.
        e1 = self.e1_deg + ACTIONS_DEG[action_index]
        lo = self.config.min_e1_deg
        hi = self.config.max_e1_deg
        self.e1_deg = lo if e1 < lo else hi if e1 > hi else e1
        return self.e1_deg

    # -- runtime updater ---------------------------------------------------------

    def observe(
        self,
        measured_local_ms: float,
        measured_remote_ms: float,
        triangles: float,
        fovea_fraction: float,
        periphery_pixels: float,
        payload_bytes: float,
        ack_throughput_bytes_per_ms: float,
    ) -> None:
        """Feed back one frame's measured latencies (the runtime updater).

        Updates the mapping-table gradient for the action just taken with
        the observed latency-difference change, and refines the predictor's
        hardware parameters.  Executed in parallel with composition/display
        in hardware, so it costs nothing on the critical path.
        """
        diff = (measured_remote_ms - measured_local_ms)
        if self._pending is not None and self._last_diff_ms is not None:
            observed_delta = diff - self._last_diff_ms
            self.table.update(
                self._pending.motion_code,
                self._pending.action_index,
                observed_delta,
                self.config.reward_alpha,
            )
        self._last_diff_ms = diff
        self.predictor.observe_local(triangles, fovea_fraction, measured_local_ms)
        self.predictor.observe_remote(
            periphery_pixels, payload_bytes, measured_remote_ms, ack_throughput_bytes_per_ms
        )
        self._pending = None
