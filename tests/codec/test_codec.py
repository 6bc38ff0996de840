"""Tests for the H.264 rate/latency model and streaming pipeline math."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.h264 import H264Model
from repro.codec.stream import pipelined_latency_ms
from repro.errors import CodecError


class TestH264Rate:
    def test_paper_background_size_band(self):
        """Table 1 backgrounds: ~480-650 KB for a stereo 1920x2160 frame."""
        codec = H264Model()
        pixels = 1920 * 2160 * 2
        for complexity, lo_kb, hi_kb in ((0.29, 430, 530), (0.72, 600, 700)):
            size_kb = codec.encode(pixels, complexity).payload_bytes / 1e3
            assert lo_kb < size_kb < hi_kb

    def test_rate_monotone_in_complexity(self):
        codec = H264Model()
        assert codec.bits_per_pixel(0.9) > codec.bits_per_pixel(0.1)

    def test_compressed_smaller_than_raw(self):
        codec = H264Model()
        frame = codec.encode(1e6, 0.5)
        assert frame.payload_bytes < 1e6 * 3

    def test_depth_cheaper_than_colour(self):
        codec = H264Model()
        assert codec.encode_depth(1e6).payload_bytes < codec.encode(1e6, 0.5).payload_bytes

    def test_layer_penalty_raises_bpp(self):
        codec = H264Model()
        flat = codec.encode(1e6, 0.5)
        layered = codec.encode_layer(1e6, 0.5, downsample_scale=3.0)
        assert layered.bits_per_pixel > flat.bits_per_pixel

    def test_layer_scale_one_matches_plain_encode(self):
        codec = H264Model()
        assert codec.encode_layer(1e6, 0.5, 1.0).payload_bytes == pytest.approx(
            codec.encode(1e6, 0.5).payload_bytes
        )

    def test_decode_time_linear(self):
        codec = H264Model()
        assert codec.decode_time_ms(4e6) == pytest.approx(2 * codec.decode_time_ms(2e6))

    def test_invalid_inputs(self):
        codec = H264Model()
        with pytest.raises(CodecError):
            codec.encode(-1, 0.5)
        with pytest.raises(CodecError):
            codec.encode(1e6, 2.0)
        with pytest.raises(CodecError):
            codec.encode_layer(1e6, 0.5, 0.5)
        with pytest.raises(CodecError):
            codec.decode_time_ms(-1)

    @given(st.floats(min_value=0, max_value=1.5), st.floats(min_value=0, max_value=1e8))
    @settings(max_examples=40)
    def test_payload_nonnegative(self, complexity, pixels):
        frame = H264Model().encode(pixels, complexity)
        assert frame.payload_bytes >= 0


class TestPipelinedLatency:
    def test_one_chunk_is_serial(self):
        assert pipelined_latency_ms([4.0, 2.0, 8.0], chunks=1) == pytest.approx(14.0)

    def test_many_chunks_approach_bottleneck(self):
        latency = pipelined_latency_ms([4.0, 2.0, 8.0], chunks=1000)
        assert latency == pytest.approx(8.0, rel=0.01)

    def test_monotone_decreasing_in_chunks(self):
        stages = [5.0, 3.0, 9.0, 1.0]
        values = [pipelined_latency_ms(stages, k) for k in (1, 2, 4, 8, 16)]
        assert values == sorted(values, reverse=True)

    def test_bounded_by_bottleneck_and_serial(self):
        stages = [5.0, 3.0, 9.0]
        for k in (1, 2, 4, 8):
            latency = pipelined_latency_ms(stages, k)
            assert max(stages) <= latency <= sum(stages)

    def test_empty_stages(self):
        assert pipelined_latency_ms([], 4) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(CodecError):
            pipelined_latency_ms([1.0], chunks=0)
        with pytest.raises(CodecError):
            pipelined_latency_ms([-1.0], chunks=2)

    @given(
        st.lists(st.floats(min_value=0, max_value=50), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=50)
    def test_pipeline_bounds_property(self, stages, chunks):
        latency = pipelined_latency_ms(stages, chunks)
        assert max(stages) - 1e-9 <= latency <= sum(stages) + 1e-9
