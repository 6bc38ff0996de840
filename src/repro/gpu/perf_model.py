"""Per-frame GPU timing model: the reproduction's ATTILA-sim stand-in.

The model decomposes a frame into the stages of a modern tile-based mobile
GPU and combines them the way the paper's evaluation consumes them — as a
single frame render time with the right sensitivities:

* **geometry**: vertex shading on the unified shaders;
* **raster front end**: triangle setup / binning / traversal
  (fixed-function, overlapped with shading);
* **fragment shading**: the dominant cost, ``fragments x cycles-per-
  fragment`` on the unified shader lanes;
* **texture/DRAM**: memory time from the cache model, overlapped with
  compute (a frame is memory-bound when DRAM time exceeds shading time);
* **draw-call overhead**: per-batch command-processor cost, which is what
  makes batch-heavy titles (GRID: 3680 batches) disproportionately slow.

Frame time = max(compute path, memory path) + serial front-end overheads.
All stage outputs are exposed for tests and the energy model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, WorkloadError
from repro.gpu.cache import CacheModel
from repro.gpu.config import GPUConfig
from repro.gpu.raster import (
    _BIN_INSERT_CYCLES,
    _TILE_WALK_CYCLES,
    _TRIANGLE_SETUP_CYCLES,
    RasterModel,
)

__all__ = ["RenderWorkload", "FrameTiming", "GPUPerfModel"]

#: Shader cycles to transform and light one vertex (typical VR vertex
#: shaders are position + normal + a couple of varyings).
_VERTEX_CYCLES = 16.0

#: Command-processor cycles to launch one draw batch.
_BATCH_LAUNCH_CYCLES = 500.0

#: Fixed per-frame front-end cost (state validation, fences), in cycles.
_FRAME_FIXED_CYCLES = 150_000.0

#: Framebuffer write traffic per fragment (colour + depth), in bytes.
_ROP_BYTES_PER_FRAGMENT = 8.0


@dataclass(frozen=True)
class RenderWorkload:
    """A frame's rendering workload in hardware-visible units.

    This is the object the paper's LIWC can observe during render setup
    ("bypass the CPU to directly monitor the number of triangles").

    Attributes
    ----------
    vertices:
        Vertices shaded (~= triangles for indexed meshes; we use triangle
        count directly as the paper does).
    fragments:
        Fragments shaded, i.e. covered pixels times overdraw.
    fragment_cycles:
        Average shader cycles per fragment (material complexity).
    draw_batches:
        Draw calls issued.
    texture_bytes_per_fragment:
        Average texel bytes requested per fragment.
    texture_working_set_bytes:
        Unique texture footprint of the frame.
    """

    vertices: float
    fragments: float
    fragment_cycles: float
    draw_batches: float
    texture_bytes_per_fragment: float = 4.0
    texture_working_set_bytes: float = 32e6

    def __post_init__(self) -> None:
        if min(self.vertices, self.fragments, self.draw_batches) < 0:
            raise WorkloadError("workload quantities must be >= 0")
        if self.fragment_cycles < 0 or self.texture_bytes_per_fragment < 0:
            raise WorkloadError("per-item costs must be >= 0")

    def scaled(
        self,
        fragment_scale: float = 1.0,
        vertex_scale: float = 1.0,
        batch_scale: float | None = None,
    ) -> "RenderWorkload":
        """Return a proportionally scaled workload (used for partial frames).

        ``batch_scale`` defaults to ``vertex_scale`` — culling removes draw
        calls roughly in proportion to geometry.
        """
        if batch_scale is None:
            batch_scale = vertex_scale
        return RenderWorkload(
            vertices=self.vertices * vertex_scale,
            fragments=self.fragments * fragment_scale,
            fragment_cycles=self.fragment_cycles,
            draw_batches=self.draw_batches * batch_scale,
            texture_bytes_per_fragment=self.texture_bytes_per_fragment,
            texture_working_set_bytes=self.texture_working_set_bytes
            * max(fragment_scale, 0.05),
        )


@dataclass(frozen=True)
class FrameTiming:
    """Per-stage timing breakdown for one rendered frame (milliseconds)."""

    geometry_ms: float
    raster_ms: float
    fragment_ms: float
    dram_ms: float
    batch_overhead_ms: float
    fixed_ms: float

    @property
    def compute_ms(self) -> float:
        """Unified-shader occupancy (geometry + fragment shading)."""
        return self.geometry_ms + self.fragment_ms

    @property
    def total_ms(self) -> float:
        """Frame render time.

        Compute and memory overlap in a pipelined GPU, so the frame takes
        the slower of the two, plus the serial front-end costs.
        """
        parallel = max(self.compute_ms, self.dram_ms, self.raster_ms)
        return parallel + self.batch_overhead_ms + self.fixed_ms


class GPUPerfModel:
    """Analytic per-frame timing model for a :class:`GPUConfig`."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.cache = CacheModel(config)
        self.raster = RasterModel(config)
        # Precomputed config scalars for the hot :meth:`render_time_ms`
        # fast path.  Each equals the corresponding per-call property value
        # exactly, so the fast path is bit-identical to the full breakdown.
        self._shade_rate = config.shading_rate_per_ms
        self._cycles_per_ms = config.frequency_hz / 1000.0
        self._l1_capacity = config.l1_kb * 1024 * config.num_shaders
        self._l2_capacity = config.l2_kb * 1024
        self._dram_bw = config.dram_bandwidth_bytes_per_ms
        self._fixed_ms = _FRAME_FIXED_CYCLES / self._cycles_per_ms

    def frame_timing(self, workload: RenderWorkload) -> FrameTiming:
        """Compute the stage breakdown for one frame."""
        cfg = self.config
        shade_rate = cfg.shading_rate_per_ms

        geometry_ms = workload.vertices * _VERTEX_CYCLES / shade_rate
        fragment_ms = workload.fragments * workload.fragment_cycles / shade_rate

        raster = self.raster.estimate(workload.vertices, workload.fragments)
        raster_ms = raster.total_cycles / (cfg.frequency_hz / 1000.0)

        traffic = self.cache.frame_traffic(
            fragments=workload.fragments,
            texture_bytes_per_fragment=workload.texture_bytes_per_fragment
            * cfg.anisotropic_taps
            / 4.0,
            texture_working_set_bytes=workload.texture_working_set_bytes,
        )
        total_dram_bytes = traffic.dram_bytes + workload.fragments * _ROP_BYTES_PER_FRAGMENT
        dram_ms = total_dram_bytes / cfg.dram_bandwidth_bytes_per_ms

        cycles_per_ms = cfg.frequency_hz / 1000.0
        batch_overhead_ms = workload.draw_batches * _BATCH_LAUNCH_CYCLES / cycles_per_ms
        fixed_ms = _FRAME_FIXED_CYCLES / cycles_per_ms
        return FrameTiming(
            geometry_ms=geometry_ms,
            raster_ms=raster_ms,
            fragment_ms=fragment_ms,
            dram_ms=dram_ms,
            batch_overhead_ms=batch_overhead_ms,
            fixed_ms=fixed_ms,
        )

    def render_time_ms(self, workload: RenderWorkload) -> float:
        """Frame render time in milliseconds.

        Inline replica of ``frame_timing(workload).total_ms`` — the same
        arithmetic in the same order, without materialising the three
        per-stage breakdown objects.  This runs once per rendered frame on
        every simulated system, so the constant-factor savings matter;
        ``tests/gpu`` pin its equality with the full breakdown.
        """
        cfg = self.config
        shade_rate = self._shade_rate
        vertices = workload.vertices
        fragments = workload.fragments

        geometry_ms = vertices * _VERTEX_CYCLES / shade_rate
        fragment_ms = fragments * workload.fragment_cycles / shade_rate

        # RasterModel.estimate / RasterEstimate.total_cycles
        if vertices < 0:
            raise ConfigurationError(f"triangles must be >= 0, got {vertices}")
        if vertices <= 0:
            tiles = 0.0
        else:
            if fragments < 0:
                raise ConfigurationError(
                    f"fragments must be >= 0, got {fragments}"
                )
            side = math.sqrt(max(fragments / vertices, 0.0))
            tiles = (side / cfg.raster_tile_px + 1.0) ** 2
        raster_cycles = (
            vertices * _TRIANGLE_SETUP_CYCLES
            + vertices * tiles * _BIN_INSERT_CYCLES
            + vertices * tiles * _TILE_WALK_CYCLES
        )
        raster_ms = raster_cycles / self._cycles_per_ms

        # CacheModel.frame_traffic
        tex_per_fragment = (
            workload.texture_bytes_per_fragment * cfg.anisotropic_taps / 4.0
        )
        if fragments < 0 or tex_per_fragment < 0:
            raise ConfigurationError(
                "fragment counts and request sizes must be >= 0"
            )
        requests = fragments * tex_per_fragment
        working_set = workload.texture_working_set_bytes
        if working_set <= 0:
            l1_hit = 1.0
        elif self._l1_capacity <= 0:
            raise ConfigurationError("cache capacity must be positive")
        else:
            l1_hit = min(1.0, math.sqrt(self._l1_capacity / working_set))
        l1_miss = requests * (1.0 - l1_hit)
        residual_ws = working_set * (1.0 - l1_hit)
        if residual_ws <= 0:
            l2_hit = 1.0
        elif self._l2_capacity <= 0:
            raise ConfigurationError("cache capacity must be positive")
        else:
            l2_hit = min(1.0, math.sqrt(self._l2_capacity / residual_ws))
        dram_bytes = l1_miss * (1.0 - l2_hit)

        total_dram_bytes = dram_bytes + fragments * _ROP_BYTES_PER_FRAGMENT
        dram_ms = total_dram_bytes / self._dram_bw

        batch_overhead_ms = (
            workload.draw_batches * _BATCH_LAUNCH_CYCLES / self._cycles_per_ms
        )
        parallel = max(geometry_ms + fragment_ms, dram_ms, raster_ms)
        return parallel + batch_overhead_ms + self._fixed_ms

    def throughput_triangles_per_ms(self, workload: RenderWorkload) -> float:
        """Observed triangle throughput ``P(GPU_m)`` of paper Eq. (2).

        LIWC's latency predictor divides the monitored triangle count by
        this quantity; the runtime updater refines it online from measured
        render times.
        """
        total = self.render_time_ms(workload)
        if total <= 0:
            raise WorkloadError("render time must be positive")
        return workload.vertices / total if workload.vertices > 0 else 0.0
