"""Fig. 12: normalized performance of Static/FFR/DFR/Q-VR + FPS lines.

Regenerates the headline comparison under the default 500 MHz / Wi-Fi
platform and asserts the Q-VR > DFR and Q-VR > static ordering on every
title.  The paper's bands (Q-VR ~3.4x average, up to ~6.7x, speedup over
local rendering; ~4.1x FPS over static collaboration; ~2.8x FPS over the
pure-software implementation) are anchors checked by
``test_paper_anchors.py``.
"""

from repro.analysis.experiments import EXPERIMENTS


def test_fig12(paper_benchmark, paper_results):
    rows = paper_benchmark(paper_results, "fig12")

    print()
    print(EXPERIMENTS["fig12"].table(rows))

    # Per-app ordering: Q-VR dominates every other design everywhere.
    for row in rows:
        assert row.qvr_speedup > row.dfr_speedup
        assert row.qvr_speedup > row.static_speedup
