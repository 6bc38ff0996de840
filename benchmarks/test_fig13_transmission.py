"""Fig. 13: transmitted data size and resolution reduction.

Regenerates the per-app transmission comparison normalised to remote-only
full-frame streaming, asserting the paper's shapes: the static design
transmits *more* than remote-only (depth maps on top of colour), Q-VR
transmits less than static and no more than FFR, and Doom3-L has the
smallest resolution reduction (most work runs locally).  The ~85 %
average and ~96 % Doom3-L data reductions and the average resolution
reduction are anchors checked by ``test_paper_anchors.py``.
"""

from repro.analysis.experiments import EXPERIMENTS


def test_fig13(paper_benchmark, paper_results):
    rows = paper_benchmark(paper_results, "fig13")

    print()
    print(EXPERIMENTS["fig13"].table(rows))

    # Static does not reduce transmitted data (it adds depth maps).
    for row in rows:
        assert row.static_normalized >= 1.0
        assert row.qvr_normalized < row.static_normalized
        assert row.qvr_normalized <= row.ffr_normalized * 1.05

    # Doom3-L runs mostly local: its resolution reduction is the smallest.
    doom3l = next(r for r in rows if r.app == "Doom3-L")
    assert doom3l.resolution_reduction == min(r.resolution_reduction for r in rows)
