"""Network condition presets (paper Table 2).

The paper evaluates three download-speed classes — Wi-Fi 200 Mbps, 4G LTE
100 Mbps and Early 5G 500 Mbps — with 20 dB SNR white noise inserted into
the channel.  Each preset also carries a one-way propagation delay (the
paper's netcat validation includes real channel latency) and a jitter
amplitude for the stochastic per-frame throughput model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import NetworkError

__all__ = ["NetworkConditions", "WIFI", "LTE_4G", "EARLY_5G", "ALL_CONDITIONS", "by_name"]


@dataclass(frozen=True)
class NetworkConditions:
    """A wireless link profile.

    Attributes
    ----------
    name:
        Human-readable label used in tables.
    throughput_mbps:
        Nominal download throughput in megabits per second (Table 2).
    uplink_mbps:
        Nominal upload throughput in megabits per second.  Mobile access
        links are asymmetric (the paper's Table 2 classes quote download
        speeds only), so the uplink is modelled separately: pose uploads
        and LIWC feedback serialise at this rate.  ``None`` keeps the
        legacy model — an unmodelled (infinite-rate) uplink where the
        request path costs only propagation — which preserves the exact
        results and cache keys of earlier releases.
    propagation_ms:
        One-way propagation + stack latency to the rendering server.
    snr_db:
        Signal-to-noise ratio of the white-noise channel model; must be
        positive (the Shannon efficiency derating degenerates at and
        below 0 dB and the noise model is meaningless there).
    jitter_fraction:
        Relative RMS per-frame throughput variation.
    """

    name: str
    throughput_mbps: float
    propagation_ms: float
    snr_db: float = 20.0
    jitter_fraction: float = 0.08
    uplink_mbps: float | None = None

    def __post_init__(self) -> None:
        if self.throughput_mbps <= 0:
            raise NetworkError(f"throughput must be > 0, got {self.throughput_mbps}")
        if self.uplink_mbps is not None and self.uplink_mbps <= 0:
            raise NetworkError(
                f"uplink_mbps must be > 0 (or None for an unmodelled uplink), "
                f"got {self.uplink_mbps}"
            )
        if self.propagation_ms < 0:
            raise NetworkError(f"propagation must be >= 0, got {self.propagation_ms}")
        if self.snr_db <= 0:
            raise NetworkError(f"snr_db must be > 0 dB, got {self.snr_db}")
        if not 0 <= self.jitter_fraction < 1:
            raise NetworkError(
                f"jitter_fraction must be in [0, 1), got {self.jitter_fraction}"
            )

    def with_uplink(self, uplink_mbps: float) -> "NetworkConditions":
        """Copy of these conditions with an asymmetric uplink rate.

        Public API with no caller in the package: README.md's uplink
        paragraph documents it.
        """
        return replace(self, uplink_mbps=uplink_mbps)


WIFI = NetworkConditions(name="Wi-Fi", throughput_mbps=200.0, propagation_ms=2.0)
LTE_4G = NetworkConditions(name="4G LTE", throughput_mbps=100.0, propagation_ms=12.0)
EARLY_5G = NetworkConditions(name="Early 5G", throughput_mbps=500.0, propagation_ms=4.0)

#: The Table 2 sweep, in the paper's presentation order.
ALL_CONDITIONS = (WIFI, LTE_4G, EARLY_5G)


#: CLI-friendly slug aliases for the Table 2 presets.
_SLUGS: dict[str, NetworkConditions] = {
    "wifi": WIFI,
    "4g": LTE_4G,
    "lte": LTE_4G,
    "5g": EARLY_5G,
}


def by_name(name: str) -> NetworkConditions:
    """Look up a preset by its table label or slug (case-insensitive).

    Accepts both the paper's table labels (``"Wi-Fi"``, ``"4G LTE"``,
    ``"Early 5G"``) and the short slug forms the CLI uses (``"wifi"``,
    ``"4g"``/``"lte"``, ``"5g"``).
    """
    key = name.strip().lower()
    for conditions in ALL_CONDITIONS:
        if conditions.name.lower() == key:
            return conditions
    if key in _SLUGS:
        return _SLUGS[key]
    valid = sorted({c.name for c in ALL_CONDITIONS} | set(_SLUGS))
    raise NetworkError(
        f"unknown network conditions {name!r}; valid names: {', '.join(valid)}"
    )
