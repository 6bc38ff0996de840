"""H.264-class video codec rate and latency model.

The paper compresses remote-rendered frames with ffmpeg's H.264 before
streaming (Sec. 5) and reports the resulting background sizes in Table 1
(~480-650 KB for a 1920x2160-per-eye stereo background).  That corresponds
to roughly 0.5 bits per pixel — intra-refresh low-latency encoding of game
content — and the sizes vary with content complexity.

The model therefore maps ``(pixels, content complexity)`` to compressed
bytes via a bits-per-pixel curve, and provides encode/decode latency in
terms of hardware codec throughput.  Depth maps (which the *static*
collaborative design must also transmit for composition) compress far
better than colour and get their own rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.errors import CodecError

__all__ = ["H264Model", "EncodedFrame"]


@dataclass(frozen=True)
class EncodedFrame:
    """A compressed frame (or frame layer) ready for streaming."""

    pixels: float
    payload_bytes: float
    bits_per_pixel: float

    def __post_init__(self) -> None:
        if self.pixels < 0 or self.payload_bytes < 0:
            raise CodecError("encoded frame quantities must be >= 0")


@dataclass(frozen=True)
class H264Model:
    """Rate/latency model for a low-latency hardware H.264 codec.

    Attributes
    ----------
    base_bits_per_pixel:
        Bits per pixel for a scene of zero content complexity.
    complexity_bits_per_pixel:
        Additional bits per pixel at content complexity 1.0.
    depth_bits_per_pixel:
        Rate for depth-map auxiliary streams (static design only).
    decode_rate_px_per_ms:
        Mobile hardware decoder throughput.
    """

    base_bits_per_pixel: float = 0.35
    complexity_bits_per_pixel: float = 0.40
    depth_bits_per_pixel: float = 0.18
    decode_rate_px_per_ms: float = 2.0e6

    def __post_init__(self) -> None:
        if self.base_bits_per_pixel <= 0 or self.complexity_bits_per_pixel < 0:
            raise CodecError("bits-per-pixel parameters must be positive")
        if self.decode_rate_px_per_ms <= 0:
            raise CodecError("decode rate must be positive")

    # -- rate ------------------------------------------------------------------

    def bits_per_pixel(self, content_complexity: float) -> float:
        """Colour-stream rate for a content complexity in [0, 1]."""
        if not 0.0 <= content_complexity <= 1.5:
            raise CodecError(
                f"content_complexity must be in [0, 1.5], got {content_complexity}"
            )
        return self.base_bits_per_pixel + self.complexity_bits_per_pixel * content_complexity

    def encode(self, pixels: float, content_complexity: float) -> EncodedFrame:
        """Compress a colour image of ``pixels`` pixels."""
        if pixels < 0:
            raise CodecError(f"pixels must be >= 0, got {pixels}")
        bpp = self.bits_per_pixel(content_complexity)
        return EncodedFrame(
            pixels=pixels,
            payload_bytes=pixels * bpp / constants.BITS_PER_BYTE,
            bits_per_pixel=bpp,
        )

    def encode_layer(
        self, pixels: float, content_complexity: float, downsample_scale: float
    ) -> EncodedFrame:
        """Compress a down-sampled periphery layer.

        Down-sampling removes the spatial redundancy the codec exploits, so
        the achievable bits per pixel *rise* with the down-sampling factor;
        a sub-linear ``scale**0.35`` penalty reproduces measured H.264
        behaviour on rescaled game footage (compressed size falls slower
        than pixel count).
        """
        if downsample_scale < 1.0:
            raise CodecError(f"downsample_scale must be >= 1, got {downsample_scale}")
        base = self.encode(pixels, content_complexity)
        bpp = base.bits_per_pixel * downsample_scale**0.35
        return EncodedFrame(
            pixels=pixels,
            payload_bytes=pixels * bpp / constants.BITS_PER_BYTE,
            bits_per_pixel=bpp,
        )

    def encode_depth(self, pixels: float) -> EncodedFrame:
        """Compress a depth map (static collaborative design)."""
        if pixels < 0:
            raise CodecError(f"pixels must be >= 0, got {pixels}")
        return EncodedFrame(
            pixels=pixels,
            payload_bytes=pixels * self.depth_bits_per_pixel / constants.BITS_PER_BYTE,
            bits_per_pixel=self.depth_bits_per_pixel,
        )

    # -- latency ---------------------------------------------------------------

    def decode_time_ms(self, pixels: float) -> float:
        """Mobile-side hardware decode latency for ``pixels`` pixels."""
        if pixels < 0:
            raise CodecError(f"pixels must be >= 0, got {pixels}")
        return pixels / self.decode_rate_px_per_ms
