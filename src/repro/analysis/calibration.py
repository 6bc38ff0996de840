"""Paper anchors and acceptance bands for the reproduction.

The paper's headline results are targets for the *shape* of our measured
numbers, not bit-exact values (the substrate is a calibrated analytical
simulator, not the authors' modified ATTILA-sim + physical testbed).  This
module records, for every headline quantity:

* the paper's reported value, and
* the acceptance band the test suite enforces on our measurements.

Bands are deliberately generous where the paper's own accounting is
under-specified (e.g. the exact composition of "normalized performance"),
and tight where the quantity is structural (ordering of designs, balance
ratio convergence, bounds of the eccentricity range).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.analysis.report import format_table

__all__ = ["Anchor", "ANCHORS", "format_scorecard"]


@dataclass(frozen=True)
class Anchor:
    """One paper-reported quantity with its acceptance band.

    Attributes
    ----------
    name:
        Identifier used by the tests and the ``repro batch`` scorecard.
    paper_value:
        The value as reported in the paper.
    low, high:
        Acceptance band for our measured value.
    source:
        Paper location of the claim.
    """

    name: str
    paper_value: float
    low: float
    high: float
    source: str

    def check(self, measured: float) -> bool:
        """True when the measured value lies in the acceptance band."""
        return self.low <= measured <= self.high


ANCHORS: dict[str, Anchor] = {
    anchor.name: anchor
    for anchor in (
        Anchor("qvr_avg_speedup", 3.4, 2.6, 4.3, "Abstract / Sec. 6.1"),
        Anchor("qvr_max_speedup", 6.7, 5.0, 7.6, "Abstract / Sec. 6.1"),
        Anchor("ffr_avg_speedup", 1.75, 1.3, 3.2, "Sec. 6.1"),
        Anchor("ffr_max_speedup", 5.6, 4.0, 6.5, "Sec. 6.1"),
        Anchor("static_avg_speedup", 1.15, 0.8, 1.9, "Sec. 6.1 (Fig. 12)"),
        Anchor("dfr_over_ffr", 1.1, 1.0, 1.35, "Sec. 6.1"),
        Anchor("qvr_fps_over_static", 4.1, 2.6, 5.5, "Sec. 6.1"),
        Anchor("qvr_fps_over_sw", 2.8, 1.5, 3.3, "Sec. 6.1"),
        Anchor("qvr_data_reduction", 0.85, 0.70, 0.97, "Sec. 6.1 (Fig. 13)"),
        Anchor("qvr_resolution_reduction", 0.41, 0.30, 0.90, "Sec. 6.1 (Fig. 13)"),
        # Our balanced controller settles Doom3-L at a smaller fovea than
        # the paper's (whose remote path floor was ~30 ms); the *shape* —
        # Doom3-L achieving the largest data reduction with the smallest
        # resolution reduction — is asserted separately in the benchmark.
        Anchor("doom3l_data_reduction", 0.96, 0.70, 1.0, "Sec. 6.1"),
        Anchor("qvr_energy_reduction", 0.73, 0.45, 0.90, "Sec. 6.3 (Fig. 15)"),
        Anchor("remote_transmit_share", 0.63, 0.45, 0.80, "Sec. 2.2 (Fig. 3b)"),
        Anchor("liwc_area_mm2", 0.66, 0.55, 0.80, "Sec. 4.3"),
        Anchor("liwc_power_mw", 25.0, 18.0, 27.0, "Sec. 4.3"),
        Anchor("uca_area_mm2", 1.6, 1.4, 1.8, "Sec. 4.3"),
        Anchor("uca_power_mw", 94.0, 80.0, 105.0, "Sec. 4.3"),
        Anchor("uca_tile_cycles", 532.0, 532.0, 532.0, "Sec. 4.3"),
    )
}


def format_scorecard(measured: Mapping[str, float]) -> str:
    """The paper-fidelity table of the ``measured`` anchors, in ANCHORS order.

    One row per anchor: its source, the paper's value, the band, the
    measured value, the relative error against the paper and whether the
    value lies in its band.  A closing ``anchors: K of N in band`` line
    lets a script gate on the whole table.
    """
    rows = [
        [name, a.source, f"{a.paper_value:g}", f"[{a.low:g}, {a.high:g}]",
         f"{measured[name]:.4g}",
         f"{(measured[name] - a.paper_value) / a.paper_value:+.1%}",
         "yes" if a.check(measured[name]) else "NO"]
        for name, a in ANCHORS.items()
        if name in measured
    ]
    in_band = sum(row[-1] == "yes" for row in rows)
    table = format_table(
        ["anchor", "source", "paper", "band", "measured", "rel. error", "in band"],
        rows,
        title="Paper anchors — measured vs reported",
    )
    return f"{table}\nanchors: {in_band} of {len(rows)} in band"
