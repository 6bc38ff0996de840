"""Wireless channel model with SNR-derived efficiency and ACK feedback.

The paper's methodology (Sec. 5): network latency is computed by dividing
the compressed frame size by the download speed, with 20 dB SNR white noise
inserted to better reflect reality, validated against netcat channels.

This module reproduces that model:

* the **effective throughput** is the nominal rate scaled by a
  Shannon-derived spectral-efficiency factor for the configured SNR and by
  a per-frame lognormal-ish jitter term (deterministic per seed);
* conditions may be **time-varying**: the channel carries a simulation
  clock (:meth:`NetworkChannel.advance_to`) and samples its
  :class:`~repro.network.profile.NetworkProfile` at the current instant,
  so a mid-run bandwidth drop reaches every subsequent transfer and the
  ACK estimate the controllers watch;
* transfers include a fixed protocol overhead and the one-way propagation
  delay is exposed separately (it belongs to the *path*, not the payload);
* the **uplink** may be asymmetric: when
  :attr:`~repro.network.conditions.NetworkConditions.uplink_mbps` is set,
  pose uploads and LIWC feedback serialise at that rate
  (:meth:`NetworkChannel.uplink_time_ms`); when unset, the request path
  costs only propagation, as in earlier releases;
* each completed transfer updates the **ACK throughput estimate** that
  LIWC monitors ("monitor the network's ACK packets for assessing the
  remote latencies").
"""

from __future__ import annotations

import math

import numpy as np

from repro import constants
from repro.errors import NetworkError
from repro.network.conditions import NetworkConditions
from repro.network.profile import NetworkProfile, as_profile

__all__ = ["NetworkChannel", "snr_efficiency"]

#: Fixed per-transfer protocol overhead (headers, pacing), in ms.
_TRANSFER_OVERHEAD_MS = 0.25

#: Spectral-efficiency normaliser: bits/Hz considered "ideal" by the model.
_IDEAL_BITS_PER_HZ = 8.0


def snr_efficiency(snr_db: float) -> float:
    """Fraction of nominal throughput delivered at a given SNR.

    Shannon capacity ``log2(1 + SNR)`` normalised by an 8 bit/Hz ideal:
    20 dB -> ~0.83, matching the paper's observation that the noisy channel
    delivers most but not all of the nominal download speed.
    """
    snr_linear = 10.0 ** (snr_db / 10.0)
    return min(1.0, math.log2(1.0 + snr_linear) / _IDEAL_BITS_PER_HZ)


class NetworkChannel:
    """A stateful wireless link between the HMD and the rendering server.

    Parameters
    ----------
    conditions:
        Static link conditions or a time-varying
        :class:`~repro.network.profile.NetworkProfile` (static conditions
        become the constant profile).
    seed:
        Seed for the deterministic per-transfer jitter stream and for any
        stochastic profile sampling.

    Notes
    -----
    The jitter stream advances once per transfer and profile sampling is
    a pure function of ``(seed, time)``, so two identically seeded
    channels replaying the same transfer/clock sequence observe identical
    durations — experiments are exactly reproducible.  The owner of the
    channel (the frame loop) moves the clock forward with
    :meth:`advance_to`; all throughput properties read the conditions at
    the current instant.
    """

    def __init__(
        self, conditions: NetworkConditions | NetworkProfile, seed: int = 0
    ) -> None:
        self.profile = as_profile(conditions)
        self._sampler = self.profile.sampler(seed)
        self._now_ms = 0.0
        self._conditions: NetworkConditions | None = None
        self._rng = np.random.default_rng(seed)
        self._ack_estimate_bytes_per_ms: float | None = None

    # -- the environment clock -------------------------------------------------

    @property
    def now_ms(self) -> float:
        """Current instant of the channel's environment clock."""
        return self._now_ms

    def advance_to(self, t_ms: float) -> None:
        """Move the environment clock forward (monotonic; never rewinds)."""
        if t_ms > self._now_ms:
            self._now_ms = t_ms
            self._conditions = None

    @property
    def conditions(self) -> NetworkConditions:
        """Link conditions at the current instant of the profile.

        Sampled once per instant: sampling is a pure function of
        ``(seed, time)`` and the clock moves only in :meth:`advance_to`,
        so every later read at the same instant reuses the sample.
        """
        conditions = self._conditions
        if conditions is None:
            conditions = self._sampler.conditions_at(self._now_ms)
            self._conditions = conditions
        return conditions

    # -- throughput ----------------------------------------------------------

    @property
    def nominal_bytes_per_ms(self) -> float:
        """Nominal (noise-free) throughput in bytes per millisecond."""
        return (
            self.conditions.throughput_mbps
            * 1e6
            / constants.BITS_PER_BYTE
            / 1000.0
        )

    @property
    def mean_effective_bytes_per_ms(self) -> float:
        """Mean effective throughput after SNR derating (no jitter)."""
        return self.nominal_bytes_per_ms * snr_efficiency(self.conditions.snr_db)

    def _draw_effective_bytes_per_ms(self) -> float:
        jitter = 1.0 + self.conditions.jitter_fraction * float(self._rng.standard_normal())
        jitter = max(jitter, 0.25)
        return self.mean_effective_bytes_per_ms * jitter

    # -- transfers -----------------------------------------------------------

    def transfer_time_ms(self, payload_bytes: float) -> float:
        """Simulate one downlink transfer and return its duration.

        The duration covers serialisation at the effective throughput plus
        protocol overhead; propagation is exposed separately via
        :attr:`one_way_ms` because pipelined streaming pays it once, not
        per chunk.
        """
        if payload_bytes < 0:
            raise NetworkError(f"payload must be >= 0, got {payload_bytes}")
        if payload_bytes == 0:
            return 0.0
        throughput = self._draw_effective_bytes_per_ms()
        duration = payload_bytes / throughput + _TRANSFER_OVERHEAD_MS
        self._update_ack_estimate(payload_bytes / duration)
        return duration

    def expected_transfer_time_ms(self, payload_bytes: float) -> float:
        """Deterministic (jitter-free) transfer duration for planning."""
        if payload_bytes < 0:
            raise NetworkError(f"payload must be >= 0, got {payload_bytes}")
        if payload_bytes == 0:
            return 0.0
        return payload_bytes / self.mean_effective_bytes_per_ms + _TRANSFER_OVERHEAD_MS

    # -- uplink ----------------------------------------------------------------

    @property
    def uplink_bytes_per_ms(self) -> float | None:
        """Effective uplink throughput, or None when the uplink is unmodelled.

        The uplink shares the path's SNR derating with the downlink; it
        is deterministic (no per-transfer jitter draw) so enabling it
        never perturbs the downlink's seeded jitter stream.
        """
        uplink_mbps = self.conditions.uplink_mbps
        if uplink_mbps is None:
            return None
        return (
            uplink_mbps
            * 1e6
            / constants.BITS_PER_BYTE
            / 1000.0
            * snr_efficiency(self.conditions.snr_db)
        )

    def uplink_time_ms(self, payload_bytes: float) -> float:
        """One-way uplink latency of a request carrying ``payload_bytes``.

        Propagation plus serialisation at the effective uplink rate (and
        the fixed protocol overhead).  With an unmodelled uplink
        (``uplink_mbps is None``) or an empty payload this degenerates to
        the bare propagation delay — the legacy request-path model, so
        existing configurations reproduce bit-identically.
        """
        if payload_bytes < 0:
            raise NetworkError(f"payload must be >= 0, got {payload_bytes}")
        throughput = self.uplink_bytes_per_ms
        if throughput is None or payload_bytes == 0:
            return self.one_way_ms
        return self.one_way_ms + payload_bytes / throughput + _TRANSFER_OVERHEAD_MS

    @property
    def one_way_ms(self) -> float:
        """One-way propagation latency of the path."""
        return self.conditions.propagation_ms

    # -- ACK-based observation (what LIWC sees) --------------------------------

    def _update_ack_estimate(self, observed: float, alpha: float = 0.3) -> None:
        if self._ack_estimate_bytes_per_ms is None:
            self._ack_estimate_bytes_per_ms = observed
        else:
            self._ack_estimate_bytes_per_ms = (
                (1.0 - alpha) * self._ack_estimate_bytes_per_ms + alpha * observed
            )

    @property
    def ack_throughput_bytes_per_ms(self) -> float:
        """LIWC's view of the link: an EWMA over observed ACK throughput.

        Before any transfer completes, falls back to the SNR-derated mean
        (the modem's link-rate report).
        """
        if self._ack_estimate_bytes_per_ms is None:
            return self.mean_effective_bytes_per_ms
        return self._ack_estimate_bytes_per_ms
