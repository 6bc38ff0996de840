"""Array-programmed frame kernels: the vectorized simulation engine.

The scalar systems (:mod:`repro.sim.systems`) build one task graph per
frame on the DES scheduler.  Every resource in the graph has capacity 1,
so each timeline is a FIFO: a task's start time is
``max(ready, unit_free)`` and assignment order equals program order.  The
kernels exploit this to replace the scheduler with O(1) float recurrences
per frame, and replace the per-frame foveation geometry (the Eq. (1)
``*e2`` grid search and the disc/panel intersection integrals) with
batched, workspace-reused numpy passes that are **bit-identical** to the
scalar code path.

Parity strategy
---------------
Stateful or numerically intricate model objects are *called verbatim* in
the exact order the scalar pipeline calls them — the network channel
(jitter draws, ACK EWMA, profile advance), the codec, the GPU performance
models, the eccentricity controllers and the share schedule.  Only three
things are replicated as array kernels, each validated bit-for-bit
against the original (see ``tests/sim/test_kernels.py``):

* the capacity-1 DES recurrences (``start = max(ready, free)``),
* the 256-sample disc/rectangle area integral of
  :meth:`~repro.core.foveation.DisplayGeometry.region_area_px`,
* the Eq. (1) ``*e2`` grid search of
  :meth:`~repro.core.foveation.FoveationModel.optimize_e2`, evaluated on
  a per-resolution master eccentricity lattice whose per-frame area sweep
  and outer-layer cost are computed once and shared by every foveated
  system and same-resolution app in the process.

Workload streams and foveation geometry are memoized across runs (both
are deterministic in ``(app, seed, n_frames)`` / resolution), which is
where most of the cross-spec batch speedup comes from.  The geometry
memo is two-level: a seed-free per-resolution lattice, shared by every
seed, under a per-``(resolution, seed, n_frames)`` gaze kernel.

The stream and gaze-kernel memos hold one entry each, the current
:func:`~repro.workloads.generator.memo_group`.  Every reuse they serve
is between runs that share ``(seed, n_frames, panel resolution, app)``,
and :class:`~repro.sim.runner.BatchEngine` runs its misses sorted by
that group, so an entry is dead once its group is done; only the lattices
(up to eight, one per resolution) outlive it.  After a cold
``fig12-grid`` pass with its results dropped, memos sized for a
system-major grid (32 streams, 8 gaze kernels) left 11.9 MB of traced
heap live, and one group leaves 4.1 MB; peak RSS fell from 68.5 to
60.2 MB (10 of 10 fresh-process pairs), with the same hit rates
(streams 0.833, gaze kernels 0.929).  So ``kernels.workloads.evict``
and ``kernels.fov.evict`` count one eviction per group change in
normal runs.  A hand-written :func:`~repro.sim.runner.run` loop in
another order (system-major, say) rebuilds a stream or gaze kernel
whenever its group changes; results are identical either way.

Per-frame state is kept only where a later lookup reads it (cold
``fig12-grid`` pass, seed 0).  The plan memo holds the 5,721 lattice
and beyond-corner plans, which 16,886 lookups read 11,165 times;
without it ``wall_s`` rose 1.94 -> 2.17 s (10 alternating cold-process
pairs, 2 vCPUs, 9 won).  The area memo holds those plans' 7,863
256-sample integrals, each computed by :meth:`_Lattice.disc_area_256`.
SW-QVR's off-lattice ``e1`` — 3,274 plans, none asked twice — is
searched directly and kept nowhere.  Render times are not memoized:
keyed by (workload, plan) such a memo hit 25% of frames, each hit
saving no more than hashing its key cost.

Memory: the 129-sample integration scratch buffers live on the lattice
— one set per resolution per process, however many gaze kernels use it
— so a gaze kernel retains only its results: per-frame sweeps and the
memoized plans and area integrals, about 380 KB for a 120-frame GRID
kernel.  :meth:`_Lattice.disc_area_256` keeps no scratch: written
with temporaries it stays bit-identical and costs about 1 µs a call
more than with workspaces (11–12 against 10.7–11 µs; under 10 ms over
the pass's 7,863 integrals).  :meth:`_Lattice.disc_areas` keeps its
workspaces: the same rewrite ran 2.0–2.3x slower at 113–147 rows.
Holding the direct plans too, and batch-integrating every frame's area
of each recurring eccentricity into a row (25,320 areas on that pass),
bought no resolvable wall time and raised
``fig12-grid`` peak RSS from 68.6 to 72.3 MB (10 of 10 pairs).  A
frame's sweep covers only the master-lattice suffix from the smallest
``e1`` offset asked at that frame, extended downward when a smaller one
arrives, so rows below the smallest eccentricity the controllers reach
are neither integrated nor held.  The gaze itself is read from the
memoized workload stream's motion samples, not generated a second
time.  Sharing one scratch set assumes kernels run one at a time in a
process, which holds: execution is single-threaded and parallelism is
by process.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro import constants
from repro.codec.stream import pipelined_latency_ms
from repro.core.controllers import (
    ControlContext,
    ControlFeedback,
    EccentricityController,
    FixedEccentricityController,
    LIWCController,
    SoftwareAdaptiveController,
)
from repro.core.foveation import DisplayGeometry, FoveationModel, PartitionPlan
from repro.core.partition import split_local_workload, split_remote_workload
from repro.core.uca import UCAUnit
from repro.errors import ConfigurationError
from repro.gpu.mobile_gpu import MobileGPU
from repro.gpu.remote_gpu import RemoteRenderer
from repro.motion.dof import GazeDelta, PoseDelta
from repro.network.channel import NetworkChannel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sim.metrics import (
    DEFAULT_WARMUP,
    SimulationResult,
    effective_warmup,
    records_from_arrays,
)
from repro.sim.server import ShareSchedule
from repro.sim.systems import (
    CL_MS,
    LIWC_SELECT_MS,
    LS_MS,
    POSE_UPLOAD_BYTES,
    _PACING_WINDOW,
    PlatformConfig,
    StaticCollaborativeSystem,
    SYSTEM_NAMES,
)
from repro.workloads.apps import VRApp
from repro.workloads.generator import WorkloadGenerator, memo_group

__all__ = ["run_vectorized"]

_CPU_BUSY_MS = CL_MS + LS_MS


# --------------------------------------------------------------------------
# memoized deterministic inputs
# --------------------------------------------------------------------------

# One entry each: the batch engine runs its misses in memo_group order.
_WORKLOAD_CACHE: OrderedDict = OrderedDict()
_WORKLOAD_CACHE_MAX = 1

_GEOMETRY_CACHE: OrderedDict = OrderedDict()
_GEOMETRY_CACHE_MAX = 1

_LATTICE_CACHE: OrderedDict = OrderedDict()
_LATTICE_CACHE_MAX = 8


def _memoized(cache: OrderedDict, limit: int, name: str, key, build):
    """LRU lookup of ``key`` in ``cache``, calling ``build()`` on a miss.

    Counts ``{name}.hit`` / ``.miss`` / ``.evict`` so every memo reports
    its hit rate.
    """
    value = cache.get(key)
    if value is None:
        obs_metrics.counter(f"{name}.miss").inc()
        value = build()
        cache[key] = value
        if len(cache) > limit:
            cache.popitem(last=False)
            obs_metrics.counter(f"{name}.evict").inc()
    else:
        obs_metrics.counter(f"{name}.hit").inc()
        cache.move_to_end(key)
    return value


def _workloads(app: VRApp, seed: int, n_frames: int):
    """Memoized workload stream — deterministic in (app, seed, n_frames)."""
    return _memoized(
        # repro-lint: disable=MP001 -- per-process memo of pure functions of the key: fork-inherited and rebuilt entries are bit-identical
        _WORKLOAD_CACHE, _WORKLOAD_CACHE_MAX, "kernels.workloads",
        (app, seed, n_frames),
        lambda: WorkloadGenerator(app, seed=seed).generate(n_frames),
    )


def _lattice(width_px: int, height_px: int) -> "_Lattice":
    """Memoized seed-free foveation lattice of one panel resolution."""
    return _memoized(
        # repro-lint: disable=MP001 -- per-process memo of pure functions of the key: fork-inherited and rebuilt entries are bit-identical
        _LATTICE_CACHE, _LATTICE_CACHE_MAX, "kernels.lattice",
        (width_px, height_px),
        lambda: _Lattice(width_px, height_px),
    )


def _foveation_kernel(app: VRApp, seed: int, workloads) -> "_FoveationKernel":
    """Memoized geometry kernel — the gaze trace depends only on resolution.

    ``workloads`` is the memoized stream of ``(app, seed, len(workloads))``;
    on a miss the kernel reads its gaze from the stream's motion samples,
    which is the trace it would otherwise generate again.
    """
    return _memoized(
        # repro-lint: disable=MP001 -- per-process memo of pure functions of the key: fork-inherited and rebuilt entries are bit-identical
        _GEOMETRY_CACHE, _GEOMETRY_CACHE_MAX, "kernels.fov",
        memo_group(app, seed, len(workloads))[:4],
        lambda: _FoveationKernel(
            _lattice(app.width_px, app.height_px), [wl.motion for wl in workloads]
        ),
    )


# --------------------------------------------------------------------------
# foveation geometry kernel (bit-identical replicas)
# --------------------------------------------------------------------------

_SAMPLES_1D = 256
_SAMPLES_2D = 129
_STEP_DEG = 0.5


class _Lattice:
    """Per-resolution, seed-free half of ``FoveationModel.plan``.

    Holds the display constants, the master eccentricity lattice with its
    outer-layer sampling factors and radii, the verified lattice offsets,
    and the integration kernels with their scratch buffers — everything
    that depends on the panel alone, so every gaze trace at this
    resolution shares one instance and one scratch set.

    Sharing the scratch is exact: kernels run one at a time in a process
    (nothing here is threaded), every buffer is scratch within one call,
    and every integration method returns a fresh array or float, so no
    caller ever holds a view into a buffer another call overwrites.
    """

    def __init__(self, width_px: int, height_px: int) -> None:
        display = DisplayGeometry(width_px, height_px)
        model = FoveationModel(display)
        self.mar = model.mar
        self.eyes = model.eyes
        self.cap = model.scale_cap
        self.ppd = display.pixels_per_degree
        self.omega_star = display.native_mar_deg
        self.corner = display.corner_eccentricity_deg
        self.width_px = width_px
        self.height_px = height_px
        self.width = float(width_px)
        self.height = float(height_px)
        self.total = float(display.total_pixels)
        self.native = float(model.eyes * display.total_pixels)

        # Master candidate lattice of optimize_e2 starting at the minimum
        # eccentricity; a call at e1 == master[k] evaluates exactly the
        # suffix master[k:], so the per-frame area sweep over the master
        # serves every lattice e1.  Offsets are only registered after the
        # suffix equality is verified element-for-element — any e1 that
        # fails (or is off-lattice, e.g. SW-QVR's float states) falls back
        # to a direct evaluation that is still bit-identical.
        e_max = self.corner
        # repro-lint: disable=DET004 -- load-bearing: the master lattice must come from arange's incremental accumulation (PR 7); start+k*step drifts the argmin tie-breaks
        master = np.arange(constants.MIN_ECCENTRICITY_DEG, e_max + _STEP_DEG, _STEP_DEG)
        master = np.minimum(master, e_max)
        self.master = master
        s_out = (self.mar.omega_0 + self.mar.slope * master) / self.omega_star
        s_out = np.minimum(s_out, self.cap)
        s_out = np.maximum(s_out, 1.0)
        self.s_out_sq = s_out * s_out
        self.lattice_offsets: dict[float, int] = {}
        for k in range(len(master)):
            v = float(master[k])
            if v >= e_max:
                break
            # repro-lint: disable=DET004 -- load-bearing: candidate lattices replicate the oracle's arange bits exactly; offsets register only after element-for-element equality below
            cand = np.minimum(np.arange(v, e_max + _STEP_DEG, _STEP_DEG), e_max)
            if len(cand) == len(master) - k and np.array_equal(cand, master[k:]):
                self.lattice_offsets[v] = k
        self.radii = master * self.ppd

        # Read-only sample positions of the integration kernels.
        self.t2d = np.linspace(0.0, 1.0, _SAMPLES_2D)
        self.idx1d = np.arange(_SAMPLES_1D, dtype=float)  # repro-lint: disable=DET004 -- integer lattice 0..N-1: exact in float64, no accumulation hazard

        # The one scratch set of every gaze kernel at this resolution.  An
        # off-lattice search from any e1 >= MIN_ECCENTRICITY_DEG has at
        # most len(master) + 2 candidates.
        m = len(master) + 2
        self._ws_ys = np.empty((m, _SAMPLES_2D))
        self._ws_a = np.empty((m, _SAMPLES_2D))
        self._ws_b = np.empty((m, _SAMPLES_2D))
        self._ws_r2 = np.empty((m, 1))
        self._ws_dflat = np.empty(m * _SAMPLES_2D)
        self._ws_eflat = np.empty(m * _SAMPLES_2D)
        # Strided per-row views of ``_ws_eflat``, one per row count.
        self._row_views: dict[int, np.ndarray] = {}
        # Direct-search workspaces (see :meth:`optimize_direct`).
        self._ws_radii = np.empty(m)
        self._ws_sout = np.empty(m)
        self._ws_mid = np.empty(m)
        self._ws_cost = np.empty(m)
        obs_metrics.counter("kernels.lattice.scratch").inc()

    # -- integration kernels (replicas of foveation._disc_rect_area*) ------

    def disc_area_256(self, cx: float, cy: float, r: float) -> float:
        """Bit-identical replica of ``_disc_rect_area(..., samples=256)``."""
        y_lo = max(0.0, cy - r)
        y_hi = min(self.height, cy + r)
        if y_hi <= y_lo:
            return 0.0
        # np.linspace(y_lo, y_hi, 256) decomposes into exactly these ops.
        step = (y_hi - y_lo) / (_SAMPLES_1D - 1)
        ys = self.idx1d * step + y_lo
        ys[-1] = y_hi
        dy = ys - cy
        half = np.sqrt(np.maximum(r * r - dy * dy, 0.0))
        x_lo = np.maximum(0.0, cx - half)
        x_hi = np.minimum(self.width, cx + half)
        widths = np.maximum(x_hi - x_lo, 0.0)
        # ``/ 2.0`` moved past the sum: power-of-two scaling is exact, so
        # halving the sum once equals halving every term, bit for bit.
        terms = (widths[1:] + widths[:-1]) * (ys[1:] - ys[:-1])
        return float(np.add.reduce(terms)) * 0.5

    def disc_areas(self, cx: float, cy: float, radii: np.ndarray) -> np.ndarray:
        """Bit-identical replica of ``_disc_rect_areas`` (samples=129).

        The trapezoid stage runs over the *flattened* row-contiguous
        buffers: one collapsed first-difference / pairwise-sum pass over
        ``m * 129`` elements instead of a strided per-row pass.  The
        ``m - 1`` row-boundary positions hold cross-row junk that the
        final strided row view skips, and every used element sees the
        exact scalar op chain, so the per-row sums are unchanged bitwise
        (the pairwise ``add.reduce`` tree depends only on the 128-element
        row length, not the memory layout).  Rows are independent: each
        depends only on its own radius, so any slice of ``radii`` yields
        the same bits as those rows of a call on the whole array.
        """
        m = len(radii)
        y_lo = np.maximum(0.0, cy - radii)
        y_hi = np.minimum(self.height, cy + radii)
        span = np.maximum(y_hi - y_lo, 0.0)
        ys = self._ws_ys[:m]
        np.einsum("i,j->ij", span, self.t2d, out=ys)  # == np.outer(span, t)
        ys += y_lo[:, None]
        a = self._ws_a[:m]
        np.subtract(ys, cy, out=a)
        a *= a
        r2 = self._ws_r2[:m]
        np.multiply(radii, radii, out=r2[:, 0])
        np.subtract(r2, a, out=a)
        np.maximum(a, 0.0, out=a)
        np.sqrt(a, out=a)  # half chord
        b = self._ws_b[:m]
        np.subtract(cx, a, out=b)
        np.maximum(0.0, b, out=b)  # x_lo
        np.add(cx, a, out=a)
        np.minimum(self.width, a, out=a)  # x_hi
        np.subtract(a, b, out=a)
        np.maximum(a, 0.0, out=a)  # widths
        n = m * _SAMPLES_2D
        ys_flat = ys.reshape(n)
        a_flat = a.reshape(n)
        d = self._ws_dflat[: n - 1]
        e = self._ws_eflat[: n - 1]
        np.subtract(ys_flat[1:], ys_flat[:-1], out=d)
        np.add(a_flat[1:], a_flat[:-1], out=e)
        e *= d
        rows = self._row_views.get(m)
        if rows is None:
            stride = e.itemsize
            rows = np.lib.stride_tricks.as_strided(
                self._ws_eflat,
                shape=(m, _SAMPLES_2D - 1),
                strides=(_SAMPLES_2D * stride, stride),
            )
            self._row_views[m] = rows
        sums = np.add.reduce(rows, axis=1)
        sums *= 0.5  # the trapezoid ``/ 2.0``, exact on the sum (see above)
        return sums

    def optimize_direct(self, cx: float, cy: float, e1: float) -> float:
        """Off-lattice ``optimize_e2``: the full grid search from ``e1``.

        SW-QVR's controller emits a fresh float ``e1`` every frame (each a
        strict function of the previous frame's measured imbalance), so
        this path cannot amortise across calls; instead every step runs
        in preallocated workspaces with no temporaries.  The candidate
        lattice itself must come from ``np.arange`` — arange accumulates
        ``+= step`` incrementally, so its bits drift from
        ``e1 + k * step`` for some ``e1`` and the oracle's argmin can tie
        against that drift.  The reassociations below
        (``slope * cand + omega_0``, ``outer + middle``) only commute
        IEEE adds, which is bitwise neutral.
        """
        e_max = self.corner
        # repro-lint: disable=DET004 -- load-bearing: this lattice MUST come from arange (incremental += step accumulation); e1 + k*step drifts bitwise and the oracle's argmin can tie against that drift (docs/determinism.md)
        cand = np.arange(e1, e_max + _STEP_DEG, _STEP_DEG)
        np.minimum(cand, e_max, out=cand)
        n = len(cand)
        radii = self._ws_radii[:n]
        np.multiply(cand, self.ppd, out=radii)
        areas = self.disc_areas(cx, cy, radii)
        s_mid = min(self.mar.sampling_factor(e1, self.omega_star), self.cap)
        s_out = self._ws_sout[:n]
        np.multiply(self.mar.slope, cand, out=s_out)
        s_out += self.mar.omega_0
        s_out /= self.omega_star
        np.minimum(s_out, self.cap, out=s_out)
        np.maximum(s_out, 1.0, out=s_out)
        middle = self._ws_mid[:n]
        first = areas[0]
        np.subtract(areas, first, out=middle)
        np.maximum(middle, 0.0, out=middle)
        middle /= s_mid * s_mid
        cost = self._ws_cost[:n]
        np.subtract(self.total, areas, out=cost)
        np.maximum(cost, 0.0, out=cost)
        s_out *= s_out
        cost /= s_out
        cost += middle
        return float(cand[int(np.argmin(cost))])


class _FoveationKernel:
    """Per-(resolution, seed, n_frames) replica of ``FoveationModel.plan``.

    Pairs a shared per-resolution :class:`_Lattice` — constants,
    integration kernels and the one scratch set — with one seed's
    per-frame gaze positions and lazily-built per-frame area sweeps,
    area integrals and plans, shared by every foveated system (and every
    same-resolution app) in the process.  The kernel owns no scratch,
    and of its results it keeps only what a later lookup can read: the
    sweeps, and the plans and area integrals of lattice and
    beyond-corner eccentricities.  An off-lattice ``e1`` below the
    corner is searched directly and kept nowhere: on a cold
    ``fig12-grid`` pass SW-QVR asks 3,274 of them, none twice, while
    the 5,721 memoized plans serve 11,165 of 16,886 lookups.

    ``motion`` is the seed's motion trace (any sequence of
    :class:`~repro.motion.traces.MotionSample`).  It depends only on the
    panel resolution, the frame budget and the seed — identical for every
    app at this resolution — so the per-frame sweeps are shared.
    """

    def __init__(self, lattice: _Lattice, motion) -> None:
        self.lattice = lattice
        # The per-frame methods read the lattice's constants as their own.
        self.mar = lattice.mar
        self.eyes = lattice.eyes
        self.cap = lattice.cap
        self.ppd = lattice.ppd
        self.omega_star = lattice.omega_star
        self.corner = lattice.corner
        self.total = lattice.total
        self.native = lattice.native
        self.master = lattice.master
        self.lattice_offsets = lattice.lattice_offsets
        self._s_out_sq = lattice.s_out_sq
        self._master_radii = lattice.radii

        self.gx = [s.gaze.x_px for s in motion]
        self.gy = [s.gaze.y_px for s in motion]

        # Lazy per-frame caches (shared across systems and runs).  A
        # frame's sweep is ``(k0, areas, outer)`` over ``master[k0:]``.
        self._sweeps: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}
        self._areas: dict[tuple[int, float], float] = {}
        self._plans: dict[tuple[int, float], PartitionPlan] = {}

    def areas_filled(self) -> int:
        """Area integrals held."""
        return len(self._areas)

    def sweep_rows(self) -> int:
        """Master-lattice rows integrated so far, over every frame."""
        return sum(len(areas) for _, areas, _ in self._sweeps.values())

    def direct_plans(self, e1s) -> int:
        """How many of the eccentricities ``e1s`` :meth:`plan` searches directly."""
        corner, offsets = self.corner, self.lattice_offsets
        return sum(1 for e1 in e1s if e1 < corner and e1 not in offsets)

    # -- per-frame cached quantities ----------------------------------------

    def _sweep(self, f: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Areas and outer-layer cost of frame ``f`` over ``master[k:]``.

        Only the suffix from the smallest offset yet asked at this frame
        is integrated; a smaller offset integrates just the missing rows
        and prepends them.  Exact: each row of :meth:`_Lattice.disc_areas`
        and of the outer cost depends only on its own radius.
        """
        cached = self._sweeps.get(f)
        if cached is not None and cached[0] <= k:
            k0, areas, outer = cached
            return areas[k - k0 :], outer[k - k0 :]
        stop = len(self.master) if cached is None else cached[0]
        areas = self.lattice.disc_areas(
            self.gx[f], self.gy[f], self._master_radii[k:stop]
        )
        outer = np.maximum(self.total - areas, 0.0) / self._s_out_sq[k:stop]
        if cached is not None:
            areas = np.concatenate((areas, cached[1]))
            outer = np.concatenate((outer, cached[2]))
        self._sweeps[f] = (k, areas, outer)
        return areas, outer

    def _area(self, f: int, e_deg: float) -> float:
        """``region_area_px(e_deg, gaze)`` for frame ``f``."""
        radius = e_deg * self.ppd
        if radius == 0.0:
            return 0.0
        return self.lattice.disc_area_256(self.gx[f], self.gy[f], radius)

    def _area256(self, f: int, e_deg: float) -> float:
        """Memoized :meth:`_area`."""
        key = (f, e_deg)
        area = self._areas.get(key)
        if area is None:
            area = self._areas[key] = self._area(f, e_deg)
        return area

    def _optimize_e2(self, f: int, e1: float) -> float:
        """Replica of ``FoveationModel.optimize_e2`` for a lattice or corner ``e1``."""
        if e1 >= self.corner:
            return e1
        k = self.lattice_offsets[e1]
        areas, outer = self._sweep(f, k)
        s_mid = min(self.mar.sampling_factor(e1, self.omega_star), self.cap)
        middle = np.maximum(areas - areas[0], 0.0) / (s_mid * s_mid)
        cost = middle + outer
        return float(self.master[k + int(np.argmin(cost))])

    def plan(self, f: int, e1_deg: float) -> PartitionPlan:
        """Replica of ``FoveationModel.plan(e1, None, gaze_x, gaze_y)``.

        Lattice and beyond-corner plans are cached per (frame, e1).
        Within one run the memo never hits (a frame's probe and partition
        ask different ``e1``); it pays across runs on this kernel: FFR's
        fixed ``e1`` recurs on every same-resolution app, and Q-VR asks
        exactly DFR's plans.  An off-lattice ``e1`` below the corner —
        SW-QVR's proportional step emits a fresh float every frame — is
        searched directly and kept nowhere, its plan and both its area
        integrals alike: no later lookup asks for it again.
        """
        e1 = min(e1_deg, self.corner)
        if e1 < self.corner and e1 not in self.lattice_offsets:
            e2 = self.lattice.optimize_direct(self.gx[f], self.gy[f], e1)
            e2 = min(e2, self.corner)
            return self._partition(e1, e2, self._area(f, e1), self._area(f, e2))
        key = (f, e1_deg)
        plan = self._plans.get(key)
        if plan is None:
            e2 = min(self._optimize_e2(f, e1), self.corner)
            plan = self._partition(
                e1, e2, self._area256(f, e1), self._area256(f, e2)
            )
            self._plans[key] = plan
        return plan

    def _partition(
        self, e1: float, e2: float, area_e1: float, area_e2: float
    ) -> PartitionPlan:
        """The plan of the layer boundaries ``e1 <= e2`` and their disc areas."""
        middle_area = max(area_e2 - area_e1, 0.0)
        outer_area = max(self.total - area_e2, 0.0)
        s_mid = min(self.mar.sampling_factor(e1, self.omega_star), self.cap)
        s_out = min(self.mar.sampling_factor(e2, self.omega_star), self.cap)
        return PartitionPlan(
            e1_deg=e1,
            e2_deg=e2,
            middle_scale=s_mid,
            outer_scale=s_out,
            fovea_pixels=self.eyes * area_e1,
            middle_pixels=self.eyes * middle_area / (s_mid * s_mid),
            outer_pixels=self.eyes * outer_area / (s_out * s_out),
            native_pixels=self.native,
        )


# --------------------------------------------------------------------------
# DES recurrences (capacity-1 FIFO timelines as floats)
# --------------------------------------------------------------------------


class _RemoteChain:
    """Float recurrence of ``VRSystem._remote_chain`` (uplink -> RR -> ENC ->
    chunk-led NET -> VD), carrying the four remote-side timelines."""

    __slots__ = ("rgpu", "enc", "net", "vd")

    def __init__(self) -> None:
        self.rgpu = 0.0
        self.enc = 0.0
        self.net = 0.0
        self.vd = 0.0

    def fetch(
        self,
        issue_fin: float,
        up_ms: float,
        render_ms: float,
        encode_ms: float,
        transmit_ms: float,
        decode_ms: float,
        chunks: int,
    ) -> tuple[float, float]:
        """Advance the chain one frame; return (net, decode) finish times."""
        up_fin = issue_fin + up_ms
        rr_fin = max(up_fin, self.rgpu) + render_ms
        self.rgpu = rr_fin
        self.enc = max(rr_fin, self.enc) + encode_ms
        earliest = up_fin + (render_ms + encode_ms) / chunks
        net_fin = max(earliest, self.net) + transmit_ms
        self.net = net_fin
        vd_fin = max(net_fin, self.vd) + decode_ms / chunks
        self.vd = vd_fin
        return net_fin, vd_fin


def _path_ms(*segments_ms: float) -> float:
    """Replica of ``VRSystem._path_latency_ms`` (same summation order)."""
    return (
        constants.SENSOR_TRANSPORT_MS
        + CL_MS
        + LS_MS
        + sum(segments_ms)
        + constants.DISPLAY_SCANOUT_MS
    )


class _Env:
    """Per-run model objects, mirroring ``VRSystem.__init__`` exactly."""

    def __init__(self, app: VRApp, platform: PlatformConfig | None, seed: int) -> None:
        self.app = app
        self.platform = platform if platform is not None else PlatformConfig()
        self.seed = seed
        self.mobile = MobileGPU(self.platform.gpu)
        self.remote = RemoteRenderer(self.platform.server, self.platform.gpu)
        self.channel = NetworkChannel(self.platform.network, seed=seed + 7)
        self.codec = self.platform.codec
        self.server_schedule = (
            ShareSchedule(self.platform.server_schedule)
            if self.platform.server_schedule is not None
            else None
        )
        self.chunks = self.platform.stream_chunks

    def server_share(self) -> float:
        """GPU share granted by the server schedule at the current time."""
        if self.server_schedule is None:
            return 1.0
        return self.server_schedule.share_at(self.channel.now_ms)

    def remote_render_ms(self, workload) -> float:
        """Remote render time scaled by the current server share."""
        return self.remote.render_time_ms(workload) / self.server_share()

    def serial_remote_ms(
        self, render_ms: float, encode_ms: float, transmit_ms: float, decode_ms: float
    ) -> float:
        """Serial (non-overlapped) latency of the full remote path."""
        return self.channel.uplink_time_ms(POSE_UPLOAD_BYTES) + pipelined_latency_ms(
            [render_ms, encode_ms, transmit_ms, decode_ms], self.chunks
        )


def _frontend(ready: float, cpu_free: float) -> tuple[float, float, float]:
    """CL then LS on the CPU timeline; returns (cl_fin, ls_fin, cpu_free)."""
    cl_fin = max(ready, cpu_free) + CL_MS
    ls_fin = cl_fin + LS_MS
    return cl_fin, ls_fin, ls_fin


def _pace_ready(ls_prev: float | None, merges: list[float], extra: float | None) -> float:
    """Ready time of the next frame's CL from the pacing dependencies."""
    if ls_prev is None:
        return 0.0
    if extra is not None:
        return max(ls_prev, extra)
    if len(merges) >= _PACING_WINDOW:
        return max(ls_prev, merges[-_PACING_WINDOW])
    return ls_prev


# --------------------------------------------------------------------------
# system kernels
# --------------------------------------------------------------------------


def _run_local(env: _Env, workloads) -> dict:
    mobile, channel = env.mobile, env.channel
    atw_ms = mobile.atw_cost(env.app.pixels_per_frame).total_ms
    cpu = gpu = 0.0
    ls_prev: float | None = None
    merges: list[float] = []
    index, tracking, display, path, local, gpu_busy = [], [], [], [], [], []
    for wl in workloads:
        ready = _pace_ready(ls_prev, merges, None)
        cl_fin, ls_fin, cpu = _frontend(ready, cpu)
        render_ms = mobile.render_time_ms(wl.full)
        lr_start = max(ls_fin, gpu)
        atw_fin = lr_start + render_ms + atw_ms
        gpu = atw_fin
        disp_fin = atw_fin + constants.DISPLAY_SCANOUT_MS
        channel.advance_to(disp_fin)
        merges.append(atw_fin)
        ls_prev = ls_fin
        index.append(wl.index)
        tracking.append(lr_start - constants.SENSOR_TRANSPORT_MS)
        display.append(disp_fin)
        path.append(_path_ms(render_ms, atw_ms))
        local.append(render_ms)
        gpu_busy.append(render_ms + atw_ms)
    n = len(index)
    return dict(
        index=index,
        tracking_ms=tracking,
        display_ms=display,
        path_latency_ms=path,
        local_ms=local,
        gpu_busy_ms=gpu_busy,
        cpu_busy_ms=[_CPU_BUSY_MS] * n,
    )


def _run_remote(env: _Env, workloads) -> dict:
    mobile, channel, codec = env.mobile, env.channel, env.codec
    pixels = env.app.pixels_per_frame
    atw_ms = mobile.atw_cost(pixels).total_ms
    encode_ms = env.remote.encode_time_ms(pixels)
    decode_ms = codec.decode_time_ms(pixels)
    payload = (
        codec.encode(pixels, workloads[0].content_complexity).payload_bytes
        if workloads
        else 0.0
    )
    chain = _RemoteChain()
    cpu = gpu = 0.0
    ls_prev: float | None = None
    merges: list[float] = []
    cols: dict[str, list] = {
        name: []
        for name in (
            "index", "tracking_ms", "display_ms", "path_latency_ms",
            "remote_path_ms", "transmitted_bytes", "gpu_busy_ms",
            "net_busy_ms", "vd_busy_ms", "dropped",
        )
    }
    for wl in workloads:
        ready = _pace_ready(ls_prev, merges, None)
        cl_fin, ls_fin, cpu = _frontend(ready, cpu)
        render_ms = env.remote_render_ms(wl.full)
        transmit_ms = channel.transfer_time_ms(payload)
        up_ms = channel.uplink_time_ms(POSE_UPLOAD_BYTES)
        _, vd_fin = chain.fetch(
            ls_fin, up_ms, render_ms, encode_ms, transmit_ms, decode_ms, env.chunks
        )
        atw_fin = max(vd_fin, gpu) + atw_ms
        gpu = atw_fin
        disp_fin = atw_fin + constants.DISPLAY_SCANOUT_MS
        merges.append(atw_fin)
        ls_prev = ls_fin
        channel.advance_to(disp_fin)
        remote_path = vd_fin - ls_fin
        serial_remote = env.serial_remote_ms(render_ms, encode_ms, transmit_ms, decode_ms)
        cols["index"].append(wl.index)
        cols["tracking_ms"].append(ls_fin - constants.SENSOR_TRANSPORT_MS)
        cols["display_ms"].append(disp_fin)
        cols["path_latency_ms"].append(_path_ms(serial_remote, atw_ms))
        cols["remote_path_ms"].append(remote_path)
        cols["transmitted_bytes"].append(payload)
        cols["gpu_busy_ms"].append(atw_ms)
        cols["net_busy_ms"].append(transmit_ms)
        cols["vd_busy_ms"].append(decode_ms)
        cols["dropped"].append(remote_path > constants.MTP_LATENCY_REQUIREMENT_MS)
    cols["cpu_busy_ms"] = [_CPU_BUSY_MS] * len(cols["index"])
    return cols


def _run_static(env: _Env, workloads) -> dict:
    mobile, channel, codec = env.mobile, env.channel, env.codec
    pixels = env.app.pixels_per_frame
    comp_ms = mobile.static_composition_cost(pixels).total_ms
    atw_ms = mobile.atw_cost(pixels).total_ms
    encode_ms = env.remote.encode_time_ms(pixels)
    decode_ms = codec.decode_time_ms(pixels)
    if workloads:
        colour = codec.encode(pixels, workloads[0].content_complexity).payload_bytes
        depth = codec.encode_depth(pixels / 2.0).payload_bytes
        payload = colour + depth
    else:
        payload = 0.0
    base_miss = StaticCollaborativeSystem.base_miss_rate
    miss_gain = StaticCollaborativeSystem.activity_miss_gain
    # One uniform draw per frame, in frame order — an array draw is
    # bit-identical to the scalar loop's sequential draws.
    draws = np.random.default_rng(env.seed + 31).random(len(workloads))
    chain = _RemoteChain()
    chunks = env.chunks
    cpu = gpu = 0.0
    ls_prev: float | None = None
    merges: list[float] = []
    prefetched_fin: float | None = None
    prefetched_payload = 0.0
    prefetched_serial = 0.0
    cols: dict[str, list] = {
        name: []
        for name in (
            "index", "tracking_ms", "display_ms", "path_latency_ms", "local_ms",
            "remote_path_ms", "transmitted_bytes", "gpu_busy_ms", "net_busy_ms",
            "vd_busy_ms", "mispredicted", "dropped",
        )
    }
    # Hoist per-frame lookups out of the hot loop (pure name binding).
    render_time = mobile.render_time_ms
    remote_render = env.remote_render_ms
    transfer_time = channel.transfer_time_ms
    uplink_time = channel.uplink_time_ms
    chain_fetch = chain.fetch

    def fetch(wl, ls_fin) -> tuple[float, float]:
        """Split-render fetch: remote background layer for this frame."""
        bg_fraction = 1.0 - wl.interactive_fraction
        bg_wl = wl.full.scaled(
            fragment_scale=bg_fraction,
            vertex_scale=bg_fraction,
            batch_scale=bg_fraction,
        )
        render_ms = remote_render(bg_wl)
        transmit_ms = transfer_time(payload)
        up_ms = uplink_time(POSE_UPLOAD_BYTES)
        _, vd_fin = chain_fetch(
            ls_fin, up_ms, render_ms, encode_ms, transmit_ms, decode_ms, chunks
        )
        serial = up_ms + pipelined_latency_ms(
            [render_ms, encode_ms, transmit_ms, decode_ms], chunks
        )
        return vd_fin, serial

    for i, wl in enumerate(workloads):
        ready = _pace_ready(ls_prev, merges, None)
        cl_fin, ls_fin, cpu = _frontend(ready, cpu)

        f = wl.interactive_fraction
        local_wl = wl.full.scaled(fragment_scale=f, vertex_scale=f, batch_scale=f)
        local_ms = render_time(local_wl)
        lr_start = max(ls_fin, gpu)
        lr_fin = lr_start + local_ms
        gpu = lr_fin

        miss_p = min(base_miss + miss_gain * wl.motion.activity, 0.6)
        mispredicted = bool(draws[i] < miss_p)

        if prefetched_fin is None or mispredicted:
            bg_fin, serial_fetch = fetch(wl, ls_fin)
            issued_payload = payload
        else:
            bg_fin = prefetched_fin
            issued_payload = prefetched_payload
            serial_fetch = prefetched_serial

        c_start = max(max(lr_fin, bg_fin), gpu)
        atw_fin = c_start + comp_ms + atw_ms
        gpu = atw_fin
        disp_fin = atw_fin + constants.DISPLAY_SCANOUT_MS

        if mispredicted:
            prefetched_fin, prefetched_payload, prefetched_serial = (
                bg_fin, issued_payload, serial_fetch,
            )
        else:
            prefetched_fin, prefetched_serial = fetch(wl, ls_fin)
            prefetched_payload = payload
        merges.append(atw_fin)
        ls_prev = ls_fin
        channel.advance_to(disp_fin)

        remote_path = bg_fin - ls_fin
        cols["index"].append(wl.index)
        cols["tracking_ms"].append(min(lr_start, ls_fin) - constants.SENSOR_TRANSPORT_MS)
        cols["display_ms"].append(disp_fin)
        cols["path_latency_ms"].append(
            _path_ms(max(local_ms, serial_fetch), comp_ms, atw_ms)
        )
        cols["local_ms"].append(local_ms)
        cols["remote_path_ms"].append(max(remote_path, 0.0))
        cols["transmitted_bytes"].append(issued_payload)
        cols["gpu_busy_ms"].append(local_ms + comp_ms + atw_ms)
        cols["net_busy_ms"].append(issued_payload / channel.mean_effective_bytes_per_ms)
        cols["vd_busy_ms"].append(decode_ms)
        cols["mispredicted"].append(mispredicted)
        cols["dropped"].append(mispredicted)
    cols["cpu_busy_ms"] = [_CPU_BUSY_MS] * len(cols["index"])
    return cols


def _run_foveated(
    env: _Env,
    workloads,
    controller: EccentricityController,
    uses_uca: bool,
    fove: _FoveationKernel,
) -> dict:
    mobile, channel, codec = env.mobile, env.channel, env.codec
    app = env.app
    pixels = app.pixels_per_frame
    controller.reset()
    requires_completed = controller.requires_completed_frame
    is_fixed = isinstance(controller, FixedEccentricityController)
    is_software = isinstance(controller, SoftwareAdaptiveController)
    # SoftwareAdaptiveController ignores every context field; one reusable
    # placeholder keeps the verbatim select_e1 call (its state transition)
    # without paying for the probe plan it never reads.
    placeholder_context = (
        ControlContext(
            pose_delta=PoseDelta(),
            gaze_delta=GazeDelta(),
            triangles=0.0,
            fovea_fraction=0.0,
            periphery_pixels=0.0,
            ack_throughput_bytes_per_ms=0.0,
        )
        if is_software
        else None
    )
    if uses_uca:
        uca = UCAUnit(env.platform.uca)
        tail_ms = uca.critical_tail_ms(app.width_px, app.height_px)
        occupancy_ms = uca.occupancy_ms(app.width_px, app.height_px)
        comp_ms = atw_ms = 0.0
    else:
        tail_ms = occupancy_ms = 0.0
        comp_ms = mobile.foveated_composition_cost(pixels).total_ms
        atw_ms = mobile.atw_cost(pixels).total_ms
    chain = _RemoteChain()
    chunks = env.chunks
    cpu = gpu = liwc_free = uca_free = 0.0
    ls_prev: float | None = None
    merges: list[float] = []
    sw_extra: float | None = None
    prev_motion = None
    current_e1 = getattr(controller, "e1_deg", constants.MIN_ECCENTRICITY_DEG)
    cols: dict[str, list] = {
        name: []
        for name in (
            "index", "tracking_ms", "display_ms", "path_latency_ms", "e1_deg",
            "e2_deg", "local_ms", "remote_path_ms", "transmitted_bytes",
            "gpu_busy_ms", "net_busy_ms", "vd_busy_ms", "uca_busy_ms",
            "resolution_reduction", "dropped",
        )
    }
    # Hoist per-frame lookups out of the hot loop (pure name binding).
    select_e1 = controller.select_e1
    observe = controller.observe
    fove_plan = fove.plan
    encode_layer = codec.encode_layer
    decode_time = codec.decode_time_ms
    render_time = mobile.render_time_ms
    remote_pure_render = env.remote.render_time_ms
    server_share = env.server_share
    remote_encode = env.remote.encode_time_ms
    transfer_time = channel.transfer_time_ms
    uplink_time = channel.uplink_time_ms
    advance_to = channel.advance_to
    chain_fetch = chain.fetch
    serial_remote_fn = env.serial_remote_ms
    merges_append = merges.append
    sensor_ms = constants.SENSOR_TRANSPORT_MS
    scanout_ms = constants.DISPLAY_SCANOUT_MS
    mtp_ms = constants.MTP_LATENCY_REQUIREMENT_MS
    app_index = cols["index"].append
    app_tracking = cols["tracking_ms"].append
    app_display = cols["display_ms"].append
    app_path = cols["path_latency_ms"].append
    app_e1 = cols["e1_deg"].append
    app_e2 = cols["e2_deg"].append
    app_local = cols["local_ms"].append
    app_remote = cols["remote_path_ms"].append
    app_bytes = cols["transmitted_bytes"].append
    app_gpu = cols["gpu_busy_ms"].append
    app_net = cols["net_busy_ms"].append
    app_vd = cols["vd_busy_ms"].append
    app_uca = cols["uca_busy_ms"].append
    app_res = cols["resolution_reduction"].append
    app_dropped = cols["dropped"].append
    for wl in workloads:
        ready = _pace_ready(ls_prev, merges, sw_extra)
        cl_fin, ls_fin, cpu = _frontend(ready, cpu)

        # --- controller: choose e1 -------------------------------------
        if is_fixed:
            e1 = controller.e1_deg
        elif is_software:
            e1 = select_e1(placeholder_context)
        else:
            pose_delta = (
                wl.motion.pose.delta_from(prev_motion.pose)
                if prev_motion is not None
                else PoseDelta()
            )
            gaze_delta = (
                wl.motion.gaze.delta_from(prev_motion.gaze)
                if prev_motion is not None
                else GazeDelta()
            )
            probe = fove_plan(wl.index, current_e1)
            e1 = select_e1(
                ControlContext(
                    pose_delta=pose_delta,
                    gaze_delta=gaze_delta,
                    triangles=wl.full.vertices,
                    fovea_fraction=probe.fovea_fraction,
                    periphery_pixels=probe.periphery_pixels,
                    ack_throughput_bytes_per_ms=channel.ack_throughput_bytes_per_ms,
                )
            )
        prev_motion = wl.motion
        current_e1 = e1
        liwc_fin = max(cl_fin, liwc_free) + LIWC_SELECT_MS
        liwc_free = liwc_fin

        # --- partition and per-portion timings -------------------------
        plan = fove_plan(wl.index, e1)
        middle_bytes = encode_layer(
            plan.middle_pixels, wl.content_complexity, plan.middle_scale
        ).payload_bytes
        outer_bytes = encode_layer(
            plan.outer_pixels, wl.content_complexity, plan.outer_scale
        ).payload_bytes
        transmitted = middle_bytes + outer_bytes
        full = wl.full
        local_ms = render_time(split_local_workload(full, plan))
        rr_pure = remote_pure_render(split_remote_workload(full, plan))
        rr_ms = rr_pure / server_share()
        enc_ms = remote_encode(plan.periphery_pixels)
        transmit_ms = transfer_time(transmitted)
        decode_ms = decode_time(plan.periphery_pixels)

        lr_start = max(max(ls_fin, liwc_fin), gpu)
        lr_fin = lr_start + local_ms
        gpu = lr_fin
        covers = plan.covers_full_frame
        if covers:
            remote_fin = ls_fin
            has_remote = False
            transmit_ms = 0.0
            net_busy = 0.0
        else:
            up_ms = uplink_time(POSE_UPLOAD_BYTES)
            _, remote_fin = chain_fetch(
                ls_fin, up_ms, rr_ms, enc_ms, transmit_ms, decode_ms, chunks
            )
            has_remote = True
            net_busy = transmit_ms

        # --- composition + ATW (or UCA merge) --------------------------
        merge_ready = max(lr_fin, remote_fin)
        if uses_uca:
            merge_fin = max(merge_ready, uca_free) + tail_ms
            uca_free = merge_fin
            gpu_busy = local_ms
            uca_busy = occupancy_ms
            merge_path_ms = tail_ms
        else:
            merge_fin = max(merge_ready, gpu) + comp_ms + atw_ms
            gpu = merge_fin
            gpu_busy = local_ms + comp_ms + atw_ms
            uca_busy = 0.0
            merge_path_ms = comp_ms + atw_ms
        disp_fin = merge_fin + scanout_ms

        advance_to(disp_fin)
        merges_append(merge_fin)
        ls_prev = ls_fin
        sw_extra = merge_fin if requires_completed else None

        des_remote_ms = remote_fin - ls_fin if has_remote else 0.0
        serial_remote = (
            0.0
            if covers
            else serial_remote_fn(rr_ms, enc_ms, transmit_ms, decode_ms)
        )
        if not is_fixed:
            observe(
                ControlFeedback(
                    measured_local_ms=local_ms,
                    measured_remote_ms=serial_remote,
                    triangles=wl.full.vertices,
                    fovea_fraction=plan.fovea_fraction,
                    periphery_pixels=plan.periphery_pixels,
                    payload_bytes=transmitted,
                    ack_throughput_bytes_per_ms=channel.ack_throughput_bytes_per_ms,
                )
            )
        app_index(wl.index)
        app_tracking(min(lr_start, ls_fin) - sensor_ms)
        app_display(disp_fin)
        app_path(_path_ms(max(local_ms, serial_remote), merge_path_ms))
        app_e1(plan.e1_deg)
        app_e2(plan.e2_deg)
        app_local(local_ms)
        app_remote(serial_remote)
        app_bytes(transmitted)
        app_gpu(gpu_busy)
        app_net(net_busy)
        app_vd(decode_ms if has_remote else 0.0)
        app_uca(uca_busy)
        app_res(plan.resolution_reduction)
        app_dropped(des_remote_ms > mtp_ms)
    cols["cpu_busy_ms"] = [_CPU_BUSY_MS] * len(cols["index"])
    return cols


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

_FOVEATED_CONTROLLERS = {
    "ffr": (FixedEccentricityController, False),
    "dfr": (LIWCController, False),
    "sw-qvr": (SoftwareAdaptiveController, False),
    "qvr": (LIWCController, True),
}


def run_vectorized(
    system: str,
    app: VRApp,
    platform: PlatformConfig | None = None,
    seed: int = 0,
    n_frames: int = 300,
    warmup_frames: int = DEFAULT_WARMUP,
) -> SimulationResult:
    """Simulate one (system, app, platform, seed) spec on the array kernels.

    Produces results bit-identical to
    ``make_system(system, app, platform, seed).run(n_frames, warmup_frames)``
    for every design in :data:`~repro.sim.systems.SYSTEM_NAMES`.
    """
    key = system.lower()
    if key not in SYSTEM_NAMES:
        raise ConfigurationError(f"unknown system {system!r}; known: {SYSTEM_NAMES}")
    tracer = obs_trace.active()
    with tracer.span(
        "kernels.run",
        key=("kernels.run", key, app.name, seed, n_frames) if tracer.enabled else None,
        system=key, app=app.name,
    ):
        with tracer.span("kernels.env"):
            env = _Env(app, platform, seed)
        with tracer.span("kernels.workloads"):
            workloads = _workloads(app, seed, n_frames)
        if key == "local":
            with tracer.span("kernels.frame_pass", system=key):
                cols = _run_local(env, workloads)
        elif key == "remote":
            with tracer.span("kernels.frame_pass", system=key):
                cols = _run_remote(env, workloads)
        elif key == "static":
            with tracer.span("kernels.frame_pass", system=key):
                cols = _run_static(env, workloads)
        else:
            # repro-lint: disable=MP001 -- read-only registry constant: populated once at import, never mutated
            controller_cls, uses_uca = _FOVEATED_CONTROLLERS[key]
            with tracer.span("kernels.fov"):
                kern = _foveation_kernel(app, seed, workloads)
            # LRU hit rates for the kernel's lazy per-frame caches are
            # sampled as size deltas around the pass — the per-frame
            # accessors stay untouched, so the disabled path costs
            # nothing and the traced path adds no per-frame work.  Plans
            # searched directly are kept nowhere, so they are counted from
            # the pass's e1 column; the LIWC probes need no count, since
            # LIWC's whole-degree e1 values all lie on the lattice.
            if tracer.enabled:
                plans_before = len(kern._plans)
                sweeps_before = len(kern._sweeps)
                rows_before = kern.sweep_rows()
                areas_before = kern.areas_filled()
            with tracer.span("kernels.frame_pass", system=key):
                cols = _run_foveated(env, workloads, controller_cls(), uses_uca, kern)
            if tracer.enabled:
                # LIWC designs plan twice a frame: the probe, then the partition.
                plans = n_frames * (2 if controller_cls is LIWCController else 1)
                obs_metrics.counter("kernels.fov.plan.calls").inc(plans)
                obs_metrics.counter("kernels.fov.plan.new").inc(
                    len(kern._plans) - plans_before
                    + kern.direct_plans(cols["e1_deg"])
                )
                obs_metrics.counter("kernels.fov.sweep.new").inc(
                    len(kern._sweeps) - sweeps_before
                )
                obs_metrics.counter("kernels.fov.sweep.rows").inc(
                    kern.sweep_rows() - rows_before
                )
                obs_metrics.counter("kernels.fov.area.new").inc(
                    kern.areas_filled() - areas_before
                )
        with tracer.span("kernels.records"):
            records = records_from_arrays(**cols)
        return SimulationResult(
            system=key,
            app=app.name,
            records=records,
            warmup_frames=effective_warmup(n_frames, warmup_frames),
        )
