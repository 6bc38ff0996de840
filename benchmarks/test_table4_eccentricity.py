"""Table 4: best eccentricity under different hardware/network conditions.

Regenerates the {300, 400, 500 MHz} x {Wi-Fi, 4G LTE, Early 5G} x 7-app
sweep of steady-state eccentricities, flagging configurations that miss
the 90 Hz requirement (the paper's underlined cells).  The asserted
shapes: eccentricities stay within [5, 90] degrees, lighter titles get
larger fovea than heavier ones, slower networks push work local (larger
e1), faster networks pull work remote (smaller e1), and faster GPUs grow
the fovea.
"""

import numpy as np

from repro import constants
from repro.analysis.experiments import EXPERIMENTS
from repro.workloads.apps import TABLE3_ORDER


def test_table4(paper_benchmark, paper_results):
    cells = paper_benchmark(paper_results, "table4")

    print()
    print(EXPERIMENTS["table4"].table(cells))

    lookup = {
        (c.frequency_mhz, c.network, c.app): c.mean_e1_deg for c in cells
    }
    for cell in cells:
        assert (
            constants.MIN_ECCENTRICITY_DEG - 1e-6
            <= cell.mean_e1_deg
            <= constants.MAX_ECCENTRICITY_DEG + 1e-6
        )

    for freq in (500.0, 400.0, 300.0):
        for net in ("Wi-Fi", "4G LTE", "Early 5G"):
            # Lighter scenes keep a bigger fovea than the heaviest scene.
            assert lookup[(freq, net, "Doom3-L")] > lookup[(freq, net, "GRID")]
        # Slower network -> larger fovea; faster network -> smaller fovea.
        for app in TABLE3_ORDER:
            assert lookup[(freq, "4G LTE", app)] >= lookup[(freq, "Wi-Fi", app)] - 2.0
            assert lookup[(freq, "Early 5G", app)] <= lookup[(freq, "Wi-Fi", app)] + 2.0
    # Faster GPU -> larger fovea (averaged across apps, per network).
    for net in ("Wi-Fi", "4G LTE", "Early 5G"):
        fast = np.mean([lookup[(500.0, net, a)] for a in TABLE3_ORDER])
        slow = np.mean([lookup[(300.0, net, a)] for a in TABLE3_ORDER])
        assert fast > slow
