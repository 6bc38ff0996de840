"""Analytic texture-cache hierarchy model.

The paper's simulator is cycle-accurate; the quantity its evaluation
actually consumes is the *DRAM traffic per shaded fragment*, which is set by
how much of the texture working set the L1/L2 hierarchy captures.  We model
hit rates with the classic capacity-ratio form ``hit = ws_captured/ws``
smoothed by a square-root law (empirically close to set-associative cache
behaviour for streaming texture access), which preserves the dependencies
the experiments exercise: bigger caches or smaller working sets reduce DRAM
time; larger frames raise it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig

__all__ = ["CacheModel", "CacheTraffic"]


@dataclass(frozen=True)
class CacheTraffic:
    """Per-frame memory traffic split across the hierarchy (bytes)."""

    fragment_requests_bytes: float
    l1_miss_bytes: float
    dram_bytes: float


class CacheModel:
    """Square-root capacity model for the L1/L2 texture hierarchy."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config

    def _capture(self, capacity_bytes: float, working_set_bytes: float) -> float:
        """Fraction of a working set captured by a capacity (0..1)."""
        if working_set_bytes <= 0:
            return 1.0
        if capacity_bytes <= 0:
            raise ConfigurationError("cache capacity must be positive")
        ratio = capacity_bytes / working_set_bytes
        return min(1.0, math.sqrt(ratio))

    def frame_traffic(
        self,
        fragments: float,
        texture_bytes_per_fragment: float,
        texture_working_set_bytes: float,
    ) -> CacheTraffic:
        """Estimate the traffic generated by shading ``fragments`` fragments.

        Parameters
        ----------
        fragments:
            Shaded fragments this frame.
        texture_bytes_per_fragment:
            Average texel bytes requested per fragment (after anisotropic
            tap amplification).
        texture_working_set_bytes:
            Unique texture footprint touched by the frame.
        """
        if fragments < 0 or texture_bytes_per_fragment < 0:
            raise ConfigurationError("fragment counts and request sizes must be >= 0")
        requests = fragments * texture_bytes_per_fragment
        l1_capacity = self.config.l1_kb * 1024 * self.config.num_shaders
        l2_capacity = self.config.l2_kb * 1024
        l1_hit = self._capture(l1_capacity, texture_working_set_bytes)
        l1_miss = requests * (1.0 - l1_hit)
        # L2 sees the L1 miss stream; its effective working set is what L1
        # failed to capture.
        residual_ws = texture_working_set_bytes * (1.0 - l1_hit)
        l2_hit = self._capture(l2_capacity, residual_ws)
        dram = l1_miss * (1.0 - l2_hit)
        return CacheTraffic(
            fragment_requests_bytes=requests,
            l1_miss_bytes=l1_miss,
            dram_bytes=dram,
        )
