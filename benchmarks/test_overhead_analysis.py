"""Sec. 4.3: design overhead analysis (area, power, UCA tile latency).

Regenerates the McPAT-style overhead numbers for LIWC and UCA and the
UCA tile-throughput arithmetic, asserting the LIWC table geometry (64 KB
fp16) and two 500 MHz UCAs being sufficient for realtime (full stereo
frame under the 11 ms budget).  The paper's area, power and 532
cycles-per-tile values are anchors checked by ``test_paper_anchors.py``.
"""

from repro import constants
from repro.analysis.experiments import EXPERIMENTS
from repro.core.liwc import MappingTable
from repro.core.uca import UCAUnit


def test_overheads(paper_benchmark, paper_results):
    reports = paper_benchmark(paper_results, "overheads")

    uca = UCAUnit()
    table = MappingTable()
    print()
    print(EXPERIMENTS["overheads"].table(reports))
    print(f"LIWC table: depth {table.depth}, {table.size_bytes // 1024} KB")
    print(
        f"UCA: {constants.UCA_CYCLES_PER_TILE} cycles/tile, "
        f"stereo frame occupancy {uca.occupancy_ms(1920, 2160):.2f} ms"
    )

    assert table.depth == 2**15
    assert table.size_bytes == 64 * 1024
    assert uca.occupancy_ms(1920, 2160) < constants.FRAME_BUDGET_MS
