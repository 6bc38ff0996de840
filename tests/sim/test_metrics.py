"""Tests for frame records and simulation summary metrics."""

import math
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.metrics import (
    ExactMoments,
    FrameRecord,
    QuantileSketch,
    SimulationResult,
    StreamSummary,
    records_from_arrays,
)


def record(index, tracking, display, path=None, **kwargs):
    return FrameRecord(
        index=index,
        tracking_ms=tracking,
        display_ms=display,
        path_latency_ms=path if path is not None else float("nan"),
        **kwargs,
    )


class TestFrameRecord:
    def test_pipeline_latency(self):
        r = record(0, 10.0, 30.0)
        assert r.pipeline_latency_ms == pytest.approx(20.0)

    def test_e2e_prefers_path_latency(self):
        r = record(0, 10.0, 30.0, path=17.0)
        assert r.e2e_latency_ms == pytest.approx(17.0)

    def test_e2e_falls_back_to_pipeline(self):
        r = record(0, 10.0, 30.0)
        assert r.e2e_latency_ms == pytest.approx(20.0)

    def test_latency_ratio(self):
        r = record(0, 0, 1, local_ms=4.0, remote_path_ms=8.0)
        assert r.latency_ratio == pytest.approx(2.0)

    def test_latency_ratio_zero_local(self):
        r = record(0, 0, 1, local_ms=0.0, remote_path_ms=8.0)
        assert math.isinf(r.latency_ratio)
        r = record(0, 0, 1, local_ms=0.0, remote_path_ms=0.0)
        assert r.latency_ratio == 1.0


class TestRecordsFromArrays:
    """Records filled in place pickle exactly as constructed ones do."""

    def test_pickles_byte_identically_to_the_constructor(self):
        index = np.arange(3)
        # Columns out of field order, numpy and list inputs, and absent
        # fields that must take their defaults.
        columns = {
            "dropped": np.array([True, False, True]),
            "display_ms": [30.0, 41.5, 52.25],
            "e1_deg": np.array([5.0, -0.0, 7.5]),
            "tracking_ms": np.array([10.0, 21.0, 32.0]),
            "cpu_busy_ms": [1.5] * 3,
        }
        built = records_from_arrays(index, **columns)
        rows = [
            FrameRecord(
                index=i,
                **{
                    name: bool(column[i]) if name == "dropped" else float(column[i])
                    for name, column in columns.items()
                },
            )
            for i in range(3)
        ]
        assert pickle.dumps(built) == pickle.dumps(rows)

    def test_kernel_records_pickle_like_constructed_ones(self):
        from repro.sim.kernels import run_vectorized
        from repro.workloads.apps import get_app

        for system in ("local", "static", "qvr"):
            result = run_vectorized(system, get_app("GRID"), n_frames=12, warmup_frames=2)
            rebuilt = [FrameRecord(**vars(r)) for r in result.records]
            assert pickle.dumps(result.records) == pickle.dumps(rebuilt)

    def test_unknown_and_missing_columns_rejected(self):
        with pytest.raises(ConfigurationError, match="warp_ms"):
            records_from_arrays([0], tracking_ms=[0.0], display_ms=[1.0], warp_ms=[2.0])
        with pytest.raises(ConfigurationError, match="display_ms"):
            records_from_arrays([0], tracking_ms=[0.0])


class TestSimulationResult:
    def _result(self, n=10, warmup=2, period=10.0, path=20.0):
        records = [
            record(
                i,
                tracking=i * period,
                display=i * period + 15.0,
                path=path,
                gpu_busy_ms=8.0,
                net_busy_ms=4.0,
                e1_deg=10.0 + i,
                transmitted_bytes=1e5,
                resolution_reduction=0.5,
            )
            for i in range(n)
        ]
        return SimulationResult("qvr", "TestApp", records, warmup_frames=warmup)

    def test_mean_latency_uses_path(self):
        result = self._result(path=21.0)
        assert result.mean_latency_ms == pytest.approx(21.0)

    def test_measured_fps_from_intervals(self):
        result = self._result(period=10.0)
        assert result.measured_fps == pytest.approx(100.0)

    def test_warmup_excluded(self):
        records = [record(0, 0, 1000, path=500.0)] + [
            record(i, i * 10.0, i * 10.0 + 15, path=20.0) for i in range(1, 10)
        ]
        result = SimulationResult("x", "y", records, warmup_frames=1)
        assert result.mean_latency_ms == pytest.approx(20.0)

    def test_meets_targets(self):
        good = self._result(path=20.0)
        assert good.meets_mtp
        assert good.meets_target_fps
        bad = self._result(path=40.0)
        assert not bad.meets_mtp

    def test_mean_e1(self):
        result = self._result(n=10, warmup=2)
        # Frames 2..9 -> e1 = 12..19, mean 15.5.
        assert result.mean_e1_deg == pytest.approx(15.5)

    def test_nan_e1_for_non_foveated(self):
        records = [record(i, i * 10.0, i * 10.0 + 15) for i in range(5)]
        result = SimulationResult("local", "x", records, warmup_frames=0)
        assert math.isnan(result.mean_e1_deg)

    def test_empty_result(self):
        result = SimulationResult("x", "y", [], warmup_frames=0)
        assert math.isnan(result.mean_latency_ms)
        assert math.isnan(result.measured_fps)

    def test_invalid_warmup(self):
        with pytest.raises(ConfigurationError):
            SimulationResult("x", "y", [], warmup_frames=-1)


class TestTailFps:
    def _result(self, intervals, warmup=0):
        times, t = [], 0.0
        for interval in [0.0, *intervals]:
            t += interval
            times.append(t)
        return SimulationResult(
            system="qvr",
            app="GRID",
            records=[record(i, t - 5.0, t) for i, t in enumerate(times)],
            warmup_frames=warmup,
        )

    def test_tail_fps_uses_the_worst_interval(self):
        from repro.sim.metrics import tail_fps

        # 99th percentile of [10, 10, 40] ~ the 40 ms hitch.
        assert tail_fps([0.0, 10.0, 20.0, 60.0]) == pytest.approx(
            1000.0 / 39.4, rel=0.02
        )

    def test_tail_fps_degenerate_series(self):
        from repro.sim.metrics import tail_fps

        assert math.isnan(tail_fps([]))
        assert math.isnan(tail_fps([5.0]))
        assert tail_fps([1.0, 1.0]) == float("inf")

    def test_p99_below_mean_fps_with_a_hitch(self):
        result = self._result([10.0] * 50 + [50.0])
        assert result.p99_fps < result.measured_fps
        assert result.p99_fps == pytest.approx(result.fps_percentile(99.0))

    def test_uniform_intervals_make_p99_equal_mean(self):
        result = self._result([10.0] * 30)
        assert result.p99_fps == pytest.approx(result.measured_fps)
        assert result.p99_fps == pytest.approx(100.0)

    def test_percentile_respects_warmup(self):
        slow_start = self._result([100.0, 100.0] + [10.0] * 30, warmup=3)
        assert slow_start.fps_percentile(99.0) == pytest.approx(100.0)

    def test_too_few_steady_frames_is_nan(self):
        result = self._result([10.0], warmup=1)
        assert math.isnan(result.p99_fps)


# ---------------------------------------------------------------------------
# Streaming aggregation primitives (sharded-sweep support)
# ---------------------------------------------------------------------------


class TestExactMoments:
    def test_matches_exact_statistics(self):
        import numpy as np

        values = np.random.default_rng(7).lognormal(2.0, 0.8, size=500)
        moments = ExactMoments()
        moments.extend(values)
        assert moments.count == 500
        assert moments.mean == pytest.approx(float(np.mean(values)))
        assert moments.std == pytest.approx(float(np.std(values)))
        assert moments.min == float(np.min(values))
        assert moments.max == float(np.max(values))

    def test_order_invariant_bit_identical(self):
        import numpy as np

        rng = np.random.default_rng(13)
        values = list(rng.lognormal(2.0, 1.5, size=2000))
        forward = ExactMoments()
        forward.extend(values)
        for permutation_seed in (1, 2, 3):
            shuffled = list(values)
            np.random.default_rng(permutation_seed).shuffle(shuffled)
            other = ExactMoments()
            other.extend(shuffled)
            assert other.mean == forward.mean  # bit-identical, not approx
            assert other.std == forward.std
            assert other.variance == forward.variance

    def test_nan_skipped_and_inf_saturates(self):
        moments = ExactMoments()
        moments.extend([1.0, float("nan"), 3.0])
        assert moments.count == 2
        assert moments.mean == pytest.approx(2.0)
        moments.add(float("inf"))
        assert moments.mean == float("inf")
        assert moments.variance == float("inf")

    def test_empty_reports_nan(self):
        moments = ExactMoments()
        assert math.isnan(moments.mean)
        assert math.isnan(moments.variance)
        assert math.isnan(moments.std)

    def test_exact_stream_summary_uses_exact_moments(self):
        summary = StreamSummary()
        assert isinstance(summary.moments, ExactMoments)
        summary.extend([1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        # Exact sums keep the 1.0 that a running float sum of 1e16 loses.
        summary = StreamSummary()
        summary.extend([1e16, 1.0, -1e16, 0.5])
        assert summary.mean == 0.375

class TestQuantileSketch:
    def test_quantiles_within_relative_error_bound(self):
        import numpy as np

        values = np.random.default_rng(3).lognormal(2.5, 1.0, size=5000)
        sketch = QuantileSketch()
        sketch.extend(values)
        bound = 10.0 ** (1.0 / (2 * sketch.bins_per_decade)) - 1.0
        for q in (0.5, 0.9, 0.99):
            exact = float(np.quantile(values, q))
            got = sketch.quantile(q)
            assert abs(got - exact) / exact <= 2 * bound

    def test_out_of_range_values_clamp(self):
        sketch = QuantileSketch(min_value=1.0, max_value=10.0)
        sketch.extend([-5.0, 0.0, 1e9])
        assert sketch.count == 3
        assert sketch.quantile(0.0) >= 1.0
        assert sketch.quantile(1.0) <= 10.0

    def test_empty_and_invalid_inputs(self):
        sketch = QuantileSketch()
        assert math.isnan(sketch.quantile(0.5))
        with pytest.raises(ConfigurationError):
            sketch.quantile(1.5)
        with pytest.raises(ConfigurationError):
            QuantileSketch(min_value=0.0)
        with pytest.raises(ConfigurationError):
            QuantileSketch(bins_per_decade=0)


class TestStreamSummary:
    def test_row_reports_every_statistic(self):
        summary = StreamSummary()
        summary.extend(float(v) for v in range(1, 101))
        row = summary.row()
        assert set(row) == {"count", "mean", "std", "min", "p50", "p90", "p99", "max"}
        assert row["count"] == 100
        assert row["mean"] == pytest.approx(50.5)
        assert row["min"] == 1.0
        assert row["max"] == 100.0
        assert row["p50"] == pytest.approx(50.5, rel=0.05)

    def test_empty_summary_is_nan(self):
        summary = StreamSummary()
        assert summary.count == 0
        assert math.isnan(summary.mean)
        assert math.isnan(summary.p50)

    def test_moments_match_exact_statistics(self):
        import numpy as np

        values = np.random.default_rng(7).lognormal(2.0, 0.8, size=500)
        summary = StreamSummary()
        summary.extend(values)
        assert summary.count == summary.sketch.count == 500
        assert summary.mean == pytest.approx(float(np.mean(values)))
        assert summary.std == pytest.approx(float(np.std(values)))
        assert summary.min == float(np.min(values))
        assert summary.max == float(np.max(values))

    def test_nan_values_are_skipped(self):
        summary = StreamSummary()
        summary.extend([1.0, float("nan"), 3.0])
        assert summary.count == summary.sketch.count == 2
        assert summary.mean == 2.0
        assert (summary.min, summary.max) == (1.0, 3.0)

    def test_empty_row_reports_nan(self):
        row = StreamSummary().row()
        assert row["count"] == 0
        for key in ("mean", "std", "min", "p50", "p90", "p99", "max"):
            assert math.isnan(row[key]), key

    def test_fold_into_consumes_steady_state_series(self):
        n, warmup, period = 12, 2, 10.0
        records = [
            record(i, tracking=i * period, display=i * period + 15.0, path=20.0)
            for i in range(n)
        ]
        result = SimulationResult("qvr", "TestApp", records, warmup_frames=warmup)
        latency, fps = StreamSummary(), StreamSummary()
        result.fold_into(latency=latency, fps=fps)
        assert latency.count == n - warmup
        assert latency.mean == pytest.approx(20.0)
        assert fps.count == n - warmup - 1
        assert fps.mean == pytest.approx(1000.0 / period)
        assert fps.p50 == pytest.approx(1000.0 / period, rel=0.05)
