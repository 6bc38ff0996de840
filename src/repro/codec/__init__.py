"""Video codec substrate: H.264 rate/latency model and streaming pipeline."""

from repro.codec.h264 import EncodedFrame, H264Model
from repro.codec.stream import DEFAULT_CHUNKS, pipelined_latency_ms

__all__ = [
    "EncodedFrame",
    "H264Model",
    "pipelined_latency_ms",
    "DEFAULT_CHUNKS",
]
