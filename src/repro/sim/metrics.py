"""Per-frame records and summary metrics for system simulations.

Conventions:

* **end-to-end latency** (motion-to-photon) of a frame is the time from
  its motion sample (sensor capture) to display scan-out completion,
  matching the paper's "from tracking to display" accounting;
* **measured FPS** is computed from steady-state display completion
  intervals after a warm-up prefix.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from itertools import repeat
from statistics import mean
from typing import Iterable

import numpy as np

from repro import constants
from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_WARMUP",
    "ExactMoments",
    "FrameRecord",
    "QuantileSketch",
    "SimulationResult",
    "ServerStats",
    "ServerWindow",
    "StreamSummary",
    "WindowStats",
    "aggregate_server_stats",
    "effective_warmup",
    "records_from_arrays",
    "tail_fps",
    "window_stats",
]

#: Default steady-state warm-up prefix excluded from summary metrics.
DEFAULT_WARMUP = 30


def effective_warmup(n_frames: int, warmup_frames: int = DEFAULT_WARMUP) -> int:
    """Warm-up prefix actually applied to a run of ``n_frames`` frames.

    The single clamping rule shared by the scalar systems, the vectorized
    kernels and the batch runner: the requested warm-up applies verbatim
    when it leaves at least one steady-state frame, and collapses to zero
    otherwise (a run too short to have a steady state keeps all frames).
    """
    return warmup_frames if warmup_frames < n_frames else 0


def tail_fps(display_times_ms, percentile: float = 99.0) -> float:
    """Tail frame rate of a display-completion series.

    ``1000 / p``-th-percentile of the consecutive display intervals —
    e.g. ``tail_fps(times, 99)`` is the classic "p99 FPS" (the rate of
    the worst 1% of frames).  Shared by the steady-state result metric
    and windowed analyses (the admission experiment's drop-window tail).
    """
    if len(display_times_ms) < 2:
        return float("nan")
    intervals = np.diff(np.asarray(display_times_ms, dtype=float))
    worst = float(np.percentile(intervals, percentile))
    if worst <= 0:
        return float("inf")
    return 1000.0 / worst


# ---------------------------------------------------------------------------
# Streaming aggregation
# ---------------------------------------------------------------------------


class ExactMoments:
    """Count / mean / variance / extremes from exact partial sums.

    The constant-memory replacement for collect-then-``np.mean`` when a
    sweep is too large to hold: feed values one at a time with
    :meth:`add` and read the summary statistics at any point.  The
    running sum and sum of squares are kept as exact floating-point
    expansions (Shewchuk's grow-expansion, the algorithm behind
    ``math.fsum``), so the exact accumulated value — and therefore its
    correctly rounded reading — is invariant under any permutation of
    the :meth:`add` calls.

    This is the property population-scale consumers need: the sharded
    executor yields results in nondeterministic completion order, and a
    running (Welford) fold of the same values in two different orders
    differs in the last ULPs.  With exact sums, two runs that fold the
    same multiset of values report bit-identical statistics however the
    scheduler interleaved them.

    NaN observations are skipped (they carry no information about the
    stream); infinities are tallied separately (an exact expansion
    cannot carry them) and saturate the statistics deterministically.
    An empty aggregate reports NaN statistics, matching the steady-state
    metrics' convention.
    """

    __slots__ = ("count", "_sum", "_sumsq", "min", "max", "_pos_inf", "_neg_inf")

    def __init__(self) -> None:
        self.count = 0
        self._sum: list[float] = []
        self._sumsq: list[float] = []
        self.min = float("inf")
        self.max = float("-inf")
        self._pos_inf = 0
        self._neg_inf = 0

    @staticmethod
    def _grow(partials: list[float], x: float) -> None:
        """Fold ``x`` into an exact nonoverlapping expansion, in place."""
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def add(self, value: float) -> None:
        """Fold one observation into the aggregate."""
        value = float(value)
        if math.isnan(value):
            return
        self.count += 1
        if math.isinf(value):
            if value > 0:
                self._pos_inf += 1
            else:
                self._neg_inf += 1
        else:
            self._grow(self._sum, value)
            self._grow(self._sumsq, value * value)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold an iterable of observations (consumed lazily)."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        """Correctly rounded mean of the observations seen so far."""
        if self.count == 0:
            return float("nan")
        if self._pos_inf and self._neg_inf:
            return float("nan")
        if self._pos_inf:
            return float("inf")
        if self._neg_inf:
            return float("-inf")
        return math.fsum(self._sum) / self.count

    @property
    def variance(self) -> float:
        """Population variance, computed from the exact sums."""
        if self.count == 0:
            return float("nan")
        if self._pos_inf or self._neg_inf:
            return float("inf")
        mean = math.fsum(self._sum) / self.count
        variance = math.fsum(self._sumsq) / self.count - mean * mean
        return max(variance, 0.0)

    @property
    def std(self) -> float:
        """Population standard deviation."""
        variance = self.variance
        return math.sqrt(variance) if variance == variance else float("nan")


#: Default sub-buckets per decade of the log-binned quantile sketch —
#: worst-case relative quantile error is ``10**(1/(2*64)) - 1`` (~1.8%).
_SKETCH_BINS_PER_DECADE = 64


class QuantileSketch:
    """Fixed-resolution percentile sketch for positive magnitudes.

    A log-binned (HDR-histogram-style) sketch: the positive axis between
    ``min_value`` and ``max_value`` is divided into ``bins_per_decade``
    geometrically spaced buckets per power of ten, and each observation
    increments one bucket counter.  Memory is bounded by the (sparse)
    bucket map regardless of stream length, and the counters depend only
    on the multiset of observations, not on the order they arrive in —
    the properties the sharded batch executor needs to aggregate a
    10k-spec sweep without materializing it.

    Accuracy contract: when every observation lies in
    ``[min_value, max_value)``, :meth:`quantile` is within relative
    error ``10**(1/(2*bins_per_decade)) - 1`` (< 2% at the default
    resolution; up to floating-point rounding at bucket edges) of the
    exact inverted-CDF quantile — ``np.quantile(values, q,
    method="inverted_cdf")``, the ``ceil(q * n)``-th smallest value.
    Values below ``min_value`` (including zeros and negatives) clamp
    into the lowest bucket and values at or above ``max_value`` into the
    highest, where the bound no longer holds; NaNs are skipped.  The
    defaults span 1 µs to 10⁷ ms, generous for every millisecond- or
    FPS-scale series the simulator produces.
    """

    __slots__ = ("lo", "hi", "bins_per_decade", "_counts", "count")

    def __init__(
        self,
        min_value: float = 1e-3,
        max_value: float = 1e7,
        bins_per_decade: int = _SKETCH_BINS_PER_DECADE,
    ) -> None:
        if not 0 < min_value < max_value:
            raise ConfigurationError(
                f"need 0 < min_value < max_value, got [{min_value}, {max_value})"
            )
        if bins_per_decade < 1:
            raise ConfigurationError("bins_per_decade must be >= 1")
        self.lo = float(min_value)
        self.hi = float(max_value)
        self.bins_per_decade = int(bins_per_decade)
        self._counts: dict[int, int] = {}
        self.count = 0

    @property
    def _max_bin(self) -> int:
        return int(
            math.ceil(math.log10(self.hi / self.lo) * self.bins_per_decade)
        )

    def _bin(self, value: float) -> int:
        if value < self.lo:
            return 0
        if value >= self.hi:
            return self._max_bin
        index = int(math.floor(math.log10(value / self.lo) * self.bins_per_decade))
        return min(max(index, 0), self._max_bin)

    def add(self, value: float) -> None:
        """Fold one observation into the sketch."""
        value = float(value)
        if math.isnan(value):
            return
        index = self._bin(value)
        self._counts[index] = self._counts.get(index, 0) + 1
        self.count += 1

    def extend(self, values: Iterable[float]) -> None:
        """Fold an iterable of observations (consumed lazily)."""
        for value in values:
            self.add(value)

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1], to one-bucket resolution.

        Returns the geometric midpoint of the bucket containing the
        ``ceil(q * count)``-th smallest observation; NaN when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index in sorted(self._counts):
            seen += self._counts[index]
            if seen >= rank:
                centre = (index + 0.5) / self.bins_per_decade
                return min(self.lo * 10.0**centre, self.hi)
        return self.hi  # pragma: no cover — unreachable (counts sum to count)


class StreamSummary:
    """Exact moments plus a percentile sketch over one value stream.

    The unit of streaming sweep aggregation: count / mean / std / min /
    max via :class:`ExactMoments` and approximate percentiles via
    :class:`QuantileSketch`.  This is what the population-scale paths
    fold per-spec metrics into instead of holding a full-sweep result
    list.  Every reported statistic is independent of the order of the
    :meth:`add` calls, so a sharded run's report, which folds results
    in completion order, is bit-identical at any shard count.
    """

    __slots__ = ("moments", "sketch")

    def __init__(self, sketch: QuantileSketch | None = None) -> None:
        self.moments = ExactMoments()
        self.sketch = sketch if sketch is not None else QuantileSketch()

    def add(self, value: float) -> None:
        """Fold one observation into both aggregates."""
        self.moments.add(value)
        self.sketch.add(value)

    def extend(self, values: Iterable[float]) -> None:
        """Fold an iterable of observations (consumed lazily)."""
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        """Number of observations folded in."""
        return self.moments.count

    @property
    def mean(self) -> float:
        """Mean of the observations (NaN when empty)."""
        return self.moments.mean if self.moments.count else float("nan")

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return self.moments.std

    @property
    def min(self) -> float:
        """Smallest observation (NaN when empty)."""
        return self.moments.min if self.moments.count else float("nan")

    @property
    def max(self) -> float:
        """Largest observation (NaN when empty)."""
        return self.moments.max if self.moments.count else float("nan")

    def quantile(self, q: float) -> float:
        """Sketch quantile at ``q`` in [0, 1]."""
        return self.sketch.quantile(q)

    @property
    def p50(self) -> float:
        """Median, to sketch resolution."""
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        """90th percentile, to sketch resolution."""
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        """99th percentile, to sketch resolution."""
        return self.quantile(0.99)

    def row(self) -> dict[str, float]:
        """The summary as a flat dict (for tables and JSON artifacts)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.max,
        }


@dataclass(frozen=True)
class WindowStats:
    """Aggregate metrics over one time window of a run.

    The unit of per-epoch aggregation for event-driven sessions
    (:mod:`repro.sim.session`): an epoch of the session maps to a
    ``[start_ms, end_ms)`` window of each client's run, and each window
    summarises to frame count, throughput and tail frame rate plus the
    mean partition/transmission state.  Windows too short to measure an
    interval (< 2 frames) report NaN rates, matching the steady-state
    metrics' convention.
    """

    start_ms: float
    end_ms: float
    frames: int
    mean_fps: float
    p99_fps: float
    mean_e1_deg: float
    mean_kb_per_frame: float


def window_stats(records, start_ms: float, end_ms: float) -> WindowStats:
    """Aggregate the frames displayed inside ``[start_ms, end_ms)``.

    Frames are classified by display instant (the same convention the
    netdrop/admission experiments use); FPS derives from the completion
    intervals inside the window and the p99 tail via :func:`tail_fps`.
    """
    if end_ms <= start_ms:
        raise ConfigurationError(
            f"window must have positive length, got [{start_ms}, {end_ms})"
        )
    inside = [r for r in records if start_ms <= r.display_ms < end_ms]
    times = [r.display_ms for r in inside]
    if len(times) >= 2:
        span = times[-1] - times[0]
        mean_fps = 1000.0 * (len(times) - 1) / span if span > 0 else float("inf")
    else:
        mean_fps = float("nan")
    e1 = [r.e1_deg for r in inside if not np.isnan(r.e1_deg)]
    return WindowStats(
        start_ms=start_ms,
        end_ms=end_ms,
        frames=len(inside),
        mean_fps=mean_fps,
        p99_fps=tail_fps(times, 99.0),
        mean_e1_deg=float(np.mean(e1)) if e1 else float("nan"),
        mean_kb_per_frame=(
            float(np.mean([r.transmitted_bytes for r in inside])) / 1e3
            if inside
            else float("nan")
        ),
    )


@dataclass(frozen=True)
class ServerWindow:
    """One server's occupancy over one planning epoch of a fleet session.

    The unit the render-fleet planner (:mod:`repro.sim.fleet`) emits per
    up server per epoch: who was placed there, how much of its capacity
    they consumed, and which clients arrived at this boundary —
    ``migrated_in`` is the subset of ``arrivals`` displaced off another
    server (scale-down, failure, or consolidation), the raw material of
    the failover metrics.
    """

    server: str
    start_ms: float
    end_ms: float
    capacity: float
    load: float
    clients: tuple[int, ...] = ()
    arrivals: tuple[int, ...] = ()
    migrated_in: tuple[int, ...] = ()

    @property
    def utilisation(self) -> float:
        """Fraction of the server's capacity placed clients consume."""
        return self.load / self.capacity if self.capacity > 0 else float("nan")


@dataclass(frozen=True)
class ServerStats:
    """Whole-session aggregate of one server's :class:`ServerWindow` rows."""

    server: str
    up_ms: float
    mean_utilisation: float
    peak_load: float
    distinct_clients: int
    migrations_in: int


class _ServerFold:
    """Streaming accumulator of one server's :class:`ServerWindow` rows."""

    __slots__ = ("up_ms", "weighted", "peak_load", "clients", "migrations_in")

    def __init__(self) -> None:
        self.up_ms = 0.0
        self.weighted = 0.0
        self.peak_load = float("-inf")
        self.clients: set[int] = set()
        self.migrations_in = 0

    def add(self, window: ServerWindow) -> None:
        """Fold one server window into the running totals."""
        length = window.end_ms - window.start_ms
        self.up_ms += length
        utilisation = window.utilisation
        if not np.isnan(utilisation):
            self.weighted += utilisation * length
        if window.load > self.peak_load:
            self.peak_load = window.load
        self.clients.update(window.clients)
        self.migrations_in += len(window.migrated_in)


def aggregate_server_stats(windows) -> tuple[ServerStats, ...]:
    """Fold per-epoch :class:`ServerWindow` rows into per-server stats.

    Servers appear in first-seen order; ``mean_utilisation`` is
    time-weighted over the windows the server was up (epochs where it was
    down contribute neither time nor load).  Zero-length windows (two
    events at one instant) carry no weight.

    The fold is a single streaming pass — ``windows`` may be any
    iterable (including a lazily generated one) and is never
    materialized, so fleet timelines with millions of epoch rows
    aggregate in bounded memory.
    """
    folds: dict[str, _ServerFold] = {}
    for window in windows:
        fold = folds.get(window.server)
        if fold is None:
            fold = folds[window.server] = _ServerFold()
        fold.add(window)
    return tuple(
        ServerStats(
            server=name,
            up_ms=fold.up_ms,
            mean_utilisation=(
                fold.weighted / fold.up_ms if fold.up_ms > 0 else float("nan")
            ),
            peak_load=fold.peak_load,
            distinct_clients=len(fold.clients),
            migrations_in=fold.migrations_in,
        )
        for name, fold in folds.items()
    )


@dataclass(frozen=True)
class FrameRecord:
    """Timing and accounting for one simulated frame.

    All times are in milliseconds on the simulation clock.

    Attributes
    ----------
    index:
        Frame number.
    tracking_ms:
        Motion sample (sensor capture) time.
    display_ms:
        Display scan-out completion time.
    e1_deg, e2_deg:
        Partition eccentricities (NaN for non-foveated systems).
    local_ms:
        Local GPU render time of the frame's local portion.
    remote_path_ms:
        Latency of the remote path (render+encode+transmit+decode) from
        issue to layer availability; 0 for local-only.
    transmitted_bytes:
        Downlink payload attributable to the frame.
    gpu_busy_ms, net_busy_ms, vd_busy_ms, uca_busy_ms, cpu_busy_ms:
        Per-frame resource occupancy (for FPS formula and energy).
    resolution_reduction:
        Fraction of native pixels eliminated by foveation (0 if none).
    dropped:
        True when the frame needed ATW reconstruction (missed inputs).
    mispredicted:
        True when a static-design prefetch missed.
    path_latency_ms:
        The frame's *serial* critical-path latency (tracking -> display as
        if the frame executed in isolation) — the paper's end-to-end
        system-latency metric behind Fig. 3 and Fig. 12.  The
        ``tracking_ms``/``display_ms`` pair instead reflects the pipelined
        DES schedule (with cross-frame overlap), which is what FPS and
        contention are measured from.
    """

    index: int
    tracking_ms: float
    display_ms: float
    path_latency_ms: float = float("nan")
    e1_deg: float = float("nan")
    e2_deg: float = float("nan")
    local_ms: float = 0.0
    remote_path_ms: float = 0.0
    transmitted_bytes: float = 0.0
    gpu_busy_ms: float = 0.0
    net_busy_ms: float = 0.0
    vd_busy_ms: float = 0.0
    uca_busy_ms: float = 0.0
    cpu_busy_ms: float = 0.0
    resolution_reduction: float = 0.0
    dropped: bool = False
    mispredicted: bool = False

    @property
    def pipeline_latency_ms(self) -> float:
        """Motion-to-photon latency in the pipelined DES schedule."""
        return self.display_ms - self.tracking_ms

    @property
    def e2e_latency_ms(self) -> float:
        """End-to-end system latency (the paper's metric).

        The serial path latency when recorded; falls back to the pipelined
        measurement for systems that do not fill it in.
        """
        if not np.isnan(self.path_latency_ms):
            return self.path_latency_ms
        return self.pipeline_latency_ms

    @property
    def latency_ratio(self) -> float:
        """``T_remote / T_local`` — the Fig. 14a balance metric."""
        if self.local_ms <= 0:
            return float("inf") if self.remote_path_ms > 0 else 1.0
        return self.remote_path_ms / self.local_ms


#: FrameRecord fields that carry booleans rather than floats.
_BOOL_FIELDS = frozenset({"dropped", "mispredicted"})

#: FrameRecord field names in declaration order, and the default of each
#: field after ``index`` (``MISSING`` when the field is required).
_RECORD_FIELDS = tuple(f.name for f in fields(FrameRecord))
_RECORD_DEFAULTS = {f.name: f.default for f in fields(FrameRecord)[1:]}


def records_from_arrays(index, **columns) -> list[FrameRecord]:
    """Build :class:`FrameRecord` rows from parallel per-field columns.

    ``index`` and each keyword column are equal-length sequences (lists or
    numpy arrays); every keyword must name a :class:`FrameRecord` field.
    Values are coerced to the field's scalar type (``float``, or ``bool``
    for the drop/misprediction flags), so numpy scalars never leak into
    the records — vectorized and scalar engines produce identical rows.

    Each record's ``__dict__`` is filled directly, in field order with
    the field defaults for absent columns: exactly the dict the dataclass
    ``__init__`` builds, so the records pickle byte-identically to
    ``FrameRecord(**row)`` without its per-field frozen ``__setattr__``.
    """
    n = len(index)
    data: dict[str, list] = {}
    for name, column in columns.items():
        if name not in _RECORD_DEFAULTS:
            raise ConfigurationError(f"{name!r} is not a FrameRecord column")
        if len(column) != n:
            raise ConfigurationError(
                f"column {name!r} has {len(column)} entries, expected {n}"
            )
        # Bulk-convert each column once (``tolist`` yields native Python
        # scalars from numpy arrays) instead of coercing per element.
        values = column.tolist() if hasattr(column, "tolist") else list(column)
        if name in _BOOL_FIELDS:
            data[name] = [bool(v) for v in values]
        else:
            data[name] = [float(v) for v in values]
    indices = index.tolist() if hasattr(index, "tolist") else list(index)
    ordered = [[int(i) for i in indices]]
    for name, default in _RECORD_DEFAULTS.items():
        if name in data:
            ordered.append(data[name])
        elif default is MISSING:
            raise ConfigurationError(f"FrameRecord column {name!r} is required")
        else:
            ordered.append(repeat(default, n))
    new = object.__new__
    records = []
    append = records.append
    for row in zip(*ordered):
        record = new(FrameRecord)
        record.__dict__.update(zip(_RECORD_FIELDS, row))
        append(record)
    return records


@dataclass
class SimulationResult:
    """A completed run of one system on one workload stream."""

    system: str
    app: str
    records: list[FrameRecord] = field(default_factory=list)
    warmup_frames: int = 30

    def __post_init__(self) -> None:
        if self.warmup_frames < 0:
            raise ConfigurationError("warmup_frames must be >= 0")

    # -- helpers --------------------------------------------------------------------

    def _steady(self) -> list[FrameRecord]:
        if len(self.records) <= self.warmup_frames:
            return self.records
        return self.records[self.warmup_frames :]

    # -- latency ----------------------------------------------------------------------

    @property
    def mean_latency_ms(self) -> float:
        """Mean steady-state end-to-end latency (the paper's metric)."""
        steady = self._steady()
        if not steady:
            return float("nan")
        return mean(r.e2e_latency_ms for r in steady)

    @property
    def meets_mtp(self) -> bool:
        """True when mean latency satisfies the 25 ms MTP requirement."""
        return self.mean_latency_ms <= constants.MTP_LATENCY_REQUIREMENT_MS

    # -- frame rate --------------------------------------------------------------------

    @property
    def measured_fps(self) -> float:
        """Steady-state FPS from display completion intervals."""
        steady = self._steady()
        if len(steady) < 2:
            return float("nan")
        span_ms = steady[-1].display_ms - steady[0].display_ms
        if span_ms <= 0:
            return float("inf")
        return 1000.0 * (len(steady) - 1) / span_ms

    def fps_percentile(self, percentile: float = 99.0) -> float:
        """Tail frame rate: the FPS that ``percentile``% of frames exceed.

        Steady-state :func:`tail_fps` — the per-client tail metric the
        server's deadline scheduling is designed to protect.
        """
        return tail_fps([r.display_ms for r in self._steady()], percentile)

    @property
    def p99_fps(self) -> float:
        """Steady-state p99 tail FPS (see :meth:`fps_percentile`)."""
        return self.fps_percentile(99.0)

    @property
    def meets_target_fps(self) -> bool:
        """True when measured FPS reaches the 90 Hz requirement."""
        return self.measured_fps >= constants.TARGET_FPS

    # -- partition / transmission ----------------------------------------------------------

    @property
    def mean_e1_deg(self) -> float:
        """Steady-state mean fovea eccentricity (NaN if non-foveated)."""
        steady = [r.e1_deg for r in self._steady() if not np.isnan(r.e1_deg)]
        return float(np.mean(steady)) if steady else float("nan")

    @property
    def mean_transmitted_bytes(self) -> float:
        """Mean downlink payload per frame."""
        steady = self._steady()
        if not steady:
            return float("nan")
        return mean(r.transmitted_bytes for r in steady)

    @property
    def mean_resolution_reduction(self) -> float:
        """Mean fraction of native resolution eliminated."""
        steady = self._steady()
        if not steady:
            return float("nan")
        return mean(r.resolution_reduction for r in steady)

    # -- streaming ---------------------------------------------------------------------------

    def fold_into(
        self,
        latency: "StreamSummary | None" = None,
        fps: "StreamSummary | None" = None,
    ) -> None:
        """Fold this run's steady-state series into streaming summaries.

        Per-frame end-to-end latencies land in ``latency`` and the
        instantaneous frame rates (1000 / display interval) in ``fps``.
        This is the bounded-memory consumption path for population-scale
        sweeps: each result is folded as it streams off the executor and
        can then be dropped, instead of accumulating a full-sweep list.
        """
        steady = self._steady()
        if latency is not None:
            latency.extend(r.e2e_latency_ms for r in steady)
        if fps is not None and len(steady) >= 2:
            fps.extend(
                1000.0 / (b.display_ms - a.display_ms)
                for a, b in zip(steady, steady[1:])
                if b.display_ms > a.display_ms
            )

    # -- balance -----------------------------------------------------------------------------

    def latency_ratios(self) -> list[float]:
        """Per-frame ``T_remote / T_local`` series (all frames, Fig. 14a)."""
        return [r.latency_ratio for r in self.records]

    @property
    def mean_latency_ratio(self) -> float:
        """Steady-state mean of the balance ratio."""
        steady = self._steady()
        finite = [r.latency_ratio for r in steady if np.isfinite(r.latency_ratio)]
        return float(np.mean(finite)) if finite else float("nan")
