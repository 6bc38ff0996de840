"""Fig. 3: latency breakdown + FPS of local-only and remote-only rendering.

Regenerates both subfigures on the Table 1 tethered apps.  The paper's
headline observations are asserted: local-only is bottlenecked by the raw
GPU (latencies far above 25 ms MTP, FPS well under 90), and remote-only
misses the MTP bound too; its ~63 % transmission share is the
``remote_transmit_share`` anchor (``test_paper_anchors.py``).
"""

from repro.analysis.experiments import EXPERIMENTS


def test_fig3_motivation(paper_benchmark, paper_results):
    local_rows, remote_rows = paper_benchmark(paper_results, "fig3")

    print()
    print(EXPERIMENTS["fig3"].table((local_rows, remote_rows)))

    # Local-only: GPU-bound, misses both realtime requirements.
    for row in local_rows:
        assert row.total_ms > 25.0
        assert row.fps < 90.0
    for row in remote_rows:
        assert row.total_ms > 25.0
