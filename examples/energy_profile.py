#!/usr/bin/env python3
"""Energy profile: where does the mobile system's energy go?

Reproduces the Fig. 15 methodology for one title: runs the local baseline
and Q-VR, breaks mobile system energy into GPU / radio / decoder /
LIWC / UCA components, and reports the normalised saving across the three
network classes.

Run:
    python examples/energy_profile.py [app-name]
"""

import sys

from repro import PlatformConfig, get_app, make_system
from repro.analysis.report import format_table
from repro.energy.accounting import EnergyAccountant
from repro.network.conditions import ALL_CONDITIONS


def main() -> None:
    app_name = sys.argv[1] if len(sys.argv) > 1 else "Wolf"
    app = get_app(app_name)
    accountant = EnergyAccountant()

    baseline = make_system("local", app).run(n_frames=240)
    base = accountant.breakdown(baseline, 500.0, "Wi-Fi")
    print(
        f"{app.name} local baseline: {base.total_mj:.1f} mJ/frame "
        f"(GPU {base.gpu_mj:.1f} mJ)"
    )

    rows = []
    for conditions in ALL_CONDITIONS:
        platform = PlatformConfig(network=conditions)
        result = make_system("qvr", app, platform).run(n_frames=240)
        breakdown = accountant.breakdown(
            result, 500.0, conditions.name, has_liwc=True, has_uca=True
        )
        rows.append(
            [
                conditions.name,
                breakdown.gpu_mj,
                breakdown.radio_mj,
                breakdown.decoder_mj,
                breakdown.uca_mj + breakdown.liwc_mj,
                breakdown.total_mj,
                breakdown.total_mj / base.total_mj,
            ]
        )
    print()
    print(
        format_table(
            [
                "network", "GPU mJ", "radio mJ", "decoder mJ",
                "LIWC+UCA mJ", "total mJ", "vs local",
            ],
            rows,
            title=f"Q-VR per-frame energy — {app.name}",
        )
    )
    print(
        "\nThe GPU only shades the fovea, so its energy collapses; the radio "
        "cost it buys back is far smaller (the Fig. 15 effect)."
    )


if __name__ == "__main__":
    main()
