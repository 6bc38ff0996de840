"""Shared physical, display and timing constants for the Q-VR reproduction.

The values collected here are the cross-module anchors of the paper:

* commercial VR realtime requirements (Sec. 2.1): motion-to-photon latency
  below 25 ms and a frame rate above 90 Hz;
* fixed sensor/display latencies counted into the end-to-end path (Sec. 5):
  2 ms sensor-data transmission and 5 ms display scan-out;
* the human visual-system parameters of the MAR (minimum angle of
  resolution) model used by foveated rendering (Sec. 3.1, after
  Guenter et al. 2012);
* the classic fovea size (5 degrees) and the upper eccentricity bound at
  which the whole frame is rendered locally.

Everything is expressed in base SI-ish units used consistently across the
library: milliseconds for latency, degrees for visual angle, bytes for data
sizes, Hz for rates.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Realtime requirements (Sec. 2.1)
# --------------------------------------------------------------------------

#: Maximum acceptable motion-to-photon latency for commercial VR, in ms.
MTP_LATENCY_REQUIREMENT_MS: float = 25.0

#: Minimum acceptable frame rate for high-quality VR, in Hz.
TARGET_FPS: float = 90.0

#: Per-frame time budget implied by :data:`TARGET_FPS`, in ms (~11 ms).
FRAME_BUDGET_MS: float = 1000.0 / TARGET_FPS

# --------------------------------------------------------------------------
# Fixed pipeline latencies counted by the paper (Sec. 5 / Sec. 7)
# --------------------------------------------------------------------------

#: Latency to transport sensor data to the rendering engine, in ms.
SENSOR_TRANSPORT_MS: float = 2.0

#: Latency to scan a finished frame out onto the HMD, in ms.
DISPLAY_SCANOUT_MS: float = 5.0

# --------------------------------------------------------------------------
# Human visual system / MAR model (Sec. 3.1)
# --------------------------------------------------------------------------

#: MAR slope ``m`` in degrees of resolvable angle per degree of eccentricity.
#: Value from the user studies the paper adopts (Guenter et al. 2012).
MAR_SLOPE_DEG_PER_DEG: float = 0.022

#: Fovea MAR ``omega_0`` in degrees: finest resolvable angle at the fovea
#: (about 1/48 degree, i.e. 1.25 arcmin, per Guenter et al. 2012).
FOVEA_MAR_DEG: float = 1.0 / 48.0

#: The classic central fovea radius requiring full detail, in degrees.
CLASSIC_FOVEA_ECCENTRICITY_DEG: float = 5.0

#: Horizontal field of view of one HMD eye, in degrees.
HMD_HFOV_DEG: float = 110.0

#: Vertical field of view of one HMD eye, in degrees.
HMD_VFOV_DEG: float = 110.0

#: Smallest eccentricity the adaptive controllers may select, in degrees.
MIN_ECCENTRICITY_DEG: float = 5.0

#: Largest eccentricity: everything rendered locally (Table 4 saturates at 90).
MAX_ECCENTRICITY_DEG: float = 90.0

# --------------------------------------------------------------------------
# Default hardware clocks (Table 2)
# --------------------------------------------------------------------------

#: Default mobile GPU / UCA core frequency, in MHz.
DEFAULT_GPU_FREQ_MHZ: float = 500.0

#: UCA tile dimensions in pixels (Sec. 4.2: frames are cut into 32x32 tiles).
UCA_TILE_PX: int = 32

#: Measured UCA latency to process one 32x32 tile, in cycles (Sec. 4.3).
UCA_CYCLES_PER_TILE: int = 532

#: Number of UCA units on the SoC (Table 2).
UCA_UNIT_COUNT: int = 2

#: Raster tile size of the mobile GPU (Table 2: 16x16 tiled rasterization).
RASTER_TILE_PX: int = 16

# --------------------------------------------------------------------------
# Display / colour
# --------------------------------------------------------------------------

#: Number of eyes; VR renders a stereo pair.
EYES: int = 2

#: Bits in a byte, named to keep unit conversions self-documenting.
BITS_PER_BYTE: int = 8
