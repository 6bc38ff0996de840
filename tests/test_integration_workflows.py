"""End-to-end workflow tests: the README and example code paths."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import (
    DisplayGeometry,
    FoveationModel,
    PlatformConfig,
    get_app,
    make_system,
    run_comparison,
    speedup_over,
)
from repro.codec.h264 import H264Model
from repro.core.partition import PartitionEngine
from repro.energy.accounting import EnergyAccountant
from repro.gpu.mobile_gpu import MobileGPU
from repro.gpu.remote_gpu import RemoteRenderer


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        results = run_comparison("Doom3-L", systems=("local", "qvr"), n_frames=60)
        speedup = speedup_over(results, "qvr")
        assert speedup > 1.0
        assert results["qvr"].measured_fps > results["local"].measured_fps


class TestFullStackPartitionToTiming:
    """Drive a frame through partition -> GPU -> codec -> network by hand."""

    def test_manual_frame_walkthrough(self):
        app = get_app("HL2-H")
        engine = PartitionEngine(
            FoveationModel(DisplayGeometry(app.width_px, app.height_px)), H264Model()
        )
        mobile = MobileGPU()
        remote = RemoteRenderer()

        full = app.full_workload()
        part = engine.partition(full, 25.0, content_complexity=app.content_complexity)

        local_ms = mobile.render_time_ms(part.local)
        remote_ms = remote.render_time_ms(part.remote)
        full_ms = mobile.render_time_ms(full)

        # The fovea is a small share of the full frame; the server is fast.
        assert local_ms < 0.5 * full_ms
        assert remote_ms < local_ms
        # Payload shrinks versus streaming the whole frame.
        whole = H264Model().encode(app.pixels_per_frame, app.content_complexity)
        assert part.transmitted_bytes < 0.5 * whole.payload_bytes

    @given(st.floats(min_value=6.0, max_value=60.0))
    @settings(max_examples=10, deadline=None)
    def test_partition_timing_monotone_in_e1(self, e1):
        """Bigger fovea: strictly more local time, no more remote payload."""
        app = get_app("UT3")
        engine = PartitionEngine(
            FoveationModel(DisplayGeometry(app.width_px, app.height_px))
        )
        mobile = MobileGPU()
        full = app.full_workload()
        small = engine.partition(full, e1)
        large = engine.partition(full, e1 + 8.0)
        assert mobile.render_time_ms(large.local) >= mobile.render_time_ms(small.local)
        assert large.transmitted_bytes <= small.transmitted_bytes * (1 + 1e-9)


class TestEnergyWorkflow:
    def test_example_energy_path(self):
        app = get_app("Doom3-L")
        accountant = EnergyAccountant()
        baseline = make_system("local", app).run(n_frames=50)
        qvr = make_system("qvr", app).run(n_frames=50)
        ratio = accountant.normalized_energy(
            qvr, baseline, 500.0, "Wi-Fi", has_liwc=True, has_uca=True
        )
        assert 0.0 < ratio < 1.0


class TestPlatformSweepWorkflow:
    def test_degraded_platform_still_functional(self):
        """Worst supported platform: 300 MHz + LTE still simulates sanely."""
        from repro.network.conditions import LTE_4G

        platform = PlatformConfig(network=LTE_4G).with_gpu_frequency(300.0)
        result = make_system("qvr", get_app("GRID"), platform).run(n_frames=60)
        assert np.isfinite(result.mean_latency_ms)
        assert 5.0 <= result.mean_e1_deg <= 90.0
        # At this configuration the paper's Table 4 marks infeasibility;
        # the run records it rather than failing.
        assert result.measured_fps > 0
