"""Chunked streaming pipeline latency (render || encode || transmit || decode).

Sec. 2.3 of the paper notes that remote rendering, network transmission and
video codec work "can be streamed in parallel", and Q-VR's software layer
adds *parallel streaming* of the per-eye middle/outer layers (Sec. 3.2,
Fig. 7) to overlap rendering with data transmission.

For a job cut into ``k`` equal chunks flowing through stages with total
per-stage times ``s_1..s_n``, the classic pipeline completion time is::

    T(k) = sum_i(s_i) / k  +  (k - 1) / k * max_i(s_i)

which approaches ``max_i(s_i)`` as ``k`` grows — exactly the paper's
"we only count the highest latency portion from the remote side".
"""

from __future__ import annotations

from repro.errors import CodecError

__all__ = ["pipelined_latency_ms"]

#: Default number of slices a layer stream is cut into.
DEFAULT_CHUNKS = 8


def pipelined_latency_ms(stage_times_ms: list[float] | tuple[float, ...], chunks: int = DEFAULT_CHUNKS) -> float:
    """Completion time of a chunked multi-stage pipeline.

    Parameters
    ----------
    stage_times_ms:
        Total (un-chunked) time each stage would take alone.
    chunks:
        Number of equal slices the payload is divided into.
    """
    if chunks < 1:
        raise CodecError(f"chunks must be >= 1, got {chunks}")
    times = [float(t) for t in stage_times_ms]
    if not times:
        return 0.0
    if any(t < 0 for t in times):
        raise CodecError(f"stage times must be >= 0, got {times}")
    total = sum(times)
    bottleneck = max(times)
    return total / chunks + (chunks - 1) / chunks * bottleneck
