"""Tests for the GPU timing substrate: config, caches, raster, perf model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, WorkloadError
from repro.gpu.cache import CacheModel
from repro.gpu.config import GPUConfig, RemoteServerConfig
from repro.gpu.dram import DRAMModel, SCATTERED_EFFICIENCY, STREAMING_EFFICIENCY
from repro.gpu.mobile_gpu import MobileGPU
from repro.gpu.perf_model import GPUPerfModel, RenderWorkload
from repro.gpu.raster import RasterModel
from repro.gpu.remote_gpu import RemoteRenderer


class TestGPUConfig:
    def test_table2_defaults(self):
        cfg = GPUConfig()
        assert cfg.frequency_mhz == 500.0
        assert cfg.num_shaders == 8
        assert cfg.l1_kb == 16
        assert cfg.l2_kb == 256
        assert cfg.l2_ways == 8
        assert cfg.raster_tile_px == 16
        assert cfg.dram_bytes_per_cycle == 16
        assert cfg.dram_channels == 8

    def test_shading_rate_scales_with_frequency(self):
        base = GPUConfig()
        slow = base.at_frequency(250.0)
        assert slow.shading_rate_per_ms == pytest.approx(base.shading_rate_per_ms / 2)

    def test_at_frequency_preserves_other_fields(self):
        cfg = GPUConfig(num_shaders=4).at_frequency(300.0)
        assert cfg.num_shaders == 4
        assert cfg.frequency_mhz == 300.0

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(frequency_mhz=0)
        with pytest.raises(ConfigurationError):
            GPUConfig(num_shaders=0)

    def test_dram_bandwidth(self):
        cfg = GPUConfig()
        # 16 B/cycle * 8 channels * 500 MHz = 64 GB/s.
        assert cfg.dram_bandwidth_bytes_per_ms == pytest.approx(64e6)


class TestRemoteServerConfig:
    def test_effective_speedup_superlinear_in_gpus(self):
        one = RemoteServerConfig(num_gpus=1)
        eight = RemoteServerConfig(num_gpus=8)
        assert eight.effective_speedup > one.effective_speedup

    def test_scaling_efficiency_penalty(self):
        ideal = RemoteServerConfig(num_gpus=8, scaling_efficiency=1.0)
        lossy = RemoteServerConfig(num_gpus=8, scaling_efficiency=0.8)
        assert lossy.effective_speedup < ideal.effective_speedup
        assert ideal.effective_speedup == pytest.approx(8 * ideal.per_gpu_speedup)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            RemoteServerConfig(num_gpus=0)
        with pytest.raises(ConfigurationError):
            RemoteServerConfig(scaling_efficiency=0.0)


class TestCacheModel:
    def test_tiny_working_set_fully_cached(self):
        cache = CacheModel(GPUConfig())
        traffic = cache.frame_traffic(1e6, 4.0, texture_working_set_bytes=1024)
        assert traffic.dram_bytes == pytest.approx(0.0, abs=1.0)
        assert traffic.l1_miss_bytes == pytest.approx(0.0, abs=1.0)

    def test_bigger_working_set_more_dram(self):
        cache = CacheModel(GPUConfig())
        small = cache.frame_traffic(1e6, 4.0, 8e6)
        large = cache.frame_traffic(1e6, 4.0, 64e6)
        assert large.dram_bytes > small.dram_bytes

    def test_bigger_l2_less_dram(self):
        small_l2 = CacheModel(GPUConfig(l2_kb=128))
        big_l2 = CacheModel(GPUConfig(l2_kb=1024))
        ws = 32e6
        assert big_l2.frame_traffic(1e6, 4.0, ws).dram_bytes < small_l2.frame_traffic(
            1e6, 4.0, ws
        ).dram_bytes

    def test_zero_fragments_no_traffic(self):
        cache = CacheModel(GPUConfig())
        traffic = cache.frame_traffic(0.0, 4.0, 32e6)
        assert traffic.fragment_requests_bytes == 0.0
        assert traffic.dram_bytes == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheModel(GPUConfig()).frame_traffic(-1, 4.0, 32e6)


class TestRasterModel:
    def test_tiles_grow_with_triangle_area(self):
        raster = RasterModel(GPUConfig())
        small = raster.tiles_per_triangle(fragments=1e6, triangles=1e6)
        large = raster.tiles_per_triangle(fragments=100e6, triangles=1e6)
        assert large > small

    def test_zero_triangles(self):
        raster = RasterModel(GPUConfig())
        assert raster.tiles_per_triangle(1e6, 0) == 0.0
        assert raster.estimate(0, 0).total_cycles == 0.0

    def test_cycles_scale_with_triangles(self):
        raster = RasterModel(GPUConfig())
        one = raster.estimate(1e6, 10e6).total_cycles
        two = raster.estimate(2e6, 20e6).total_cycles
        assert two == pytest.approx(2 * one, rel=0.05)


class TestPerfModel:
    @pytest.fixture
    def perf(self):
        return GPUPerfModel(GPUConfig())

    @pytest.fixture
    def workload(self):
        return RenderWorkload(
            vertices=1e6, fragments=14e6, fragment_cycles=300.0, draw_batches=500.0
        )

    def test_time_positive(self, perf, workload):
        assert perf.render_time_ms(workload) > 0

    def test_monotone_in_fragments(self, perf, workload):
        heavier = workload.scaled(fragment_scale=2.0)
        assert perf.render_time_ms(heavier) > perf.render_time_ms(workload)

    def test_monotone_in_vertices(self, perf, workload):
        heavier = workload.scaled(vertex_scale=10.0)
        assert perf.render_time_ms(heavier) >= perf.render_time_ms(workload)

    def test_inverse_in_frequency(self, workload):
        fast = GPUPerfModel(GPUConfig(frequency_mhz=500))
        slow = GPUPerfModel(GPUConfig(frequency_mhz=250))
        assert slow.render_time_ms(workload) > fast.render_time_ms(workload)

    def test_frequency_scaling_near_linear_for_compute_bound(self, workload):
        fast = GPUPerfModel(GPUConfig(frequency_mhz=500))
        slow = GPUPerfModel(GPUConfig(frequency_mhz=250))
        ratio = slow.render_time_ms(workload) / fast.render_time_ms(workload)
        assert ratio == pytest.approx(2.0, rel=0.1)

    def test_batch_overhead_visible(self, perf):
        few = RenderWorkload(1e5, 1e6, 100.0, draw_batches=10)
        many = RenderWorkload(1e5, 1e6, 100.0, draw_batches=4000)
        delta = perf.frame_timing(many).batch_overhead_ms - perf.frame_timing(few).batch_overhead_ms
        assert delta > 1.0

    def test_breakdown_sums(self, perf, workload):
        timing = perf.frame_timing(workload)
        assert timing.total_ms >= max(timing.compute_ms, timing.dram_ms)
        assert timing.compute_ms == timing.geometry_ms + timing.fragment_ms

    def test_fast_path_equals_breakdown_exactly(self, perf):
        # render_time_ms is an inline replica of frame_timing().total_ms;
        # the two must agree to the last bit, including the degenerate
        # zero-vertex / fully-cached corners.
        cases = [
            RenderWorkload(1e6, 14e6, 300.0, 500.0),
            RenderWorkload(0.0, 0.0, 100.0, 10.0),
            RenderWorkload(1e5, 1e6, 100.0, 4000.0),
            RenderWorkload(1e6, 14e6, 300.0, 500.0, texture_working_set_bytes=0.0),
            RenderWorkload(
                1e3, 30e6, 1.0, 1.0,
                texture_bytes_per_fragment=64.0,
                texture_working_set_bytes=512e6,
            ),
        ]
        for wl in cases:
            assert perf.render_time_ms(wl) == perf.frame_timing(wl).total_ms

    @given(
        st.floats(min_value=0.0, max_value=5e6),
        st.floats(min_value=0.0, max_value=50e6),
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=0.0, max_value=5000.0),
    )
    @settings(max_examples=50)
    def test_fast_path_equals_breakdown_property(
        self, vertices, fragments, cycles, batches
    ):
        perf = GPUPerfModel(GPUConfig())
        wl = RenderWorkload(vertices, fragments, cycles, batches)
        assert perf.render_time_ms(wl) == perf.frame_timing(wl).total_ms

    def test_memory_bound_detection(self, perf):
        streamer = RenderWorkload(
            vertices=1e3, fragments=30e6, fragment_cycles=1.0,
            draw_batches=1.0, texture_bytes_per_fragment=64.0,
            texture_working_set_bytes=512e6,
        )
        timing = perf.frame_timing(streamer)
        assert timing.dram_ms > timing.compute_ms

    def test_throughput_eq2_quantity(self, perf, workload):
        throughput = perf.throughput_triangles_per_ms(workload)
        assert throughput == pytest.approx(
            workload.vertices / perf.render_time_ms(workload)
        )

    def test_invalid_workload(self):
        with pytest.raises(WorkloadError):
            RenderWorkload(-1, 0, 0, 0)

    @given(st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=30)
    def test_scaled_workload_never_slower(self, scale):
        perf = GPUPerfModel(GPUConfig())
        full = RenderWorkload(1e6, 14e6, 300.0, 500.0)
        partial = full.scaled(fragment_scale=scale, vertex_scale=scale)
        assert perf.render_time_ms(partial) <= perf.render_time_ms(full) * (1 + 1e-9)


class TestMobileGPUPostPasses:
    def test_atw_cost_scales_with_pixels(self):
        gpu = MobileGPU()
        assert gpu.atw_cost(8e6).total_ms > gpu.atw_cost(2e6).total_ms

    def test_static_composition_heavier_than_foveated(self):
        gpu = MobileGPU()
        px = 8e6
        assert gpu.static_composition_cost(px).total_ms > gpu.foveated_composition_cost(px).total_ms

    def test_preemption_penalty_included(self):
        gpu = MobileGPU()
        cost = gpu.atw_cost(1e6)
        assert cost.total_ms >= cost.preemption_ms

    def test_negative_pixels_rejected(self):
        with pytest.raises(WorkloadError):
            MobileGPU().atw_cost(-1)


class TestDRAMModel:
    def test_streaming_faster_than_scattered(self):
        dram = DRAMModel(GPUConfig())
        assert dram.transfer_ms(1e6, STREAMING_EFFICIENCY) < dram.transfer_ms(
            1e6, SCATTERED_EFFICIENCY
        )

    def test_invalid_efficiency(self):
        with pytest.raises(ConfigurationError):
            DRAMModel(GPUConfig()).transfer_ms(1e6, 0.0)

    def test_zero_traffic(self):
        assert DRAMModel(GPUConfig()).transfer_ms(0.0) == 0.0


class TestRemoteRenderer:
    def test_server_much_faster_than_mobile(self):
        remote = RemoteRenderer()
        wl = RenderWorkload(1e6, 14e6, 300.0, 500.0)
        mobile_time = GPUPerfModel(GPUConfig()).render_time_ms(wl)
        assert remote.render_time_ms(wl) < mobile_time / 10

    def test_encode_time_linear(self):
        remote = RemoteRenderer()
        assert remote.encode_time_ms(5e6) == pytest.approx(2 * remote.encode_time_ms(2.5e6))

    def test_negative_pixels_rejected(self):
        with pytest.raises(WorkloadError):
            RemoteRenderer().encode_time_ms(-1)


class TestAppCalibration:
    """The Table 3 titles must reproduce the paper's workload spread."""

    def test_grid_is_heaviest(self):
        from repro.workloads.apps import APPS

        gpu = MobileGPU()
        times = {
            name: gpu.render_time_ms(app.full_workload())
            for name, app in APPS.items()
        }
        assert max(times, key=times.get) == "GRID"
        assert min(times, key=times.get) == "Doom3-L"

    def test_full_frame_times_in_calibrated_band(self):
        from repro.workloads.apps import APPS

        gpu = MobileGPU()
        for app in APPS.values():
            time_ms = gpu.render_time_ms(app.full_workload())
            assert 10.0 < time_ms < 160.0, app.name

    def test_low_res_variants_faster(self):
        from repro.workloads.apps import get_app

        gpu = MobileGPU()
        assert gpu.render_time_ms(
            get_app("Doom3-L").full_workload()
        ) < gpu.render_time_ms(get_app("Doom3-H").full_workload())
