#!/usr/bin/env python3
"""Network adaptation: watch Q-VR re-balance as the link changes.

The paper's Table 4 shows that the best eccentricity depends on the
network: slow links push work onto the local GPU (big fovea), fast links
pull it to the server (small fovea).  This example runs one title across
Wi-Fi, 4G LTE and Early 5G and reports where the controller settles,
its balance quality, and the resulting latency/FPS — a single-app slice
of Table 4.

Run:
    python examples/network_adaptation.py [app-name]
"""

import sys

from repro import PlatformConfig, get_app, make_system
from repro.analysis.report import format_table
from repro.network.conditions import ALL_CONDITIONS


def main() -> None:
    app_name = sys.argv[1] if len(sys.argv) > 1 else "HL2-H"
    app = get_app(app_name)
    rows = []
    for conditions in ALL_CONDITIONS:
        platform = PlatformConfig(network=conditions)
        result = make_system("qvr", app, platform).run(n_frames=240)
        rows.append(
            [
                conditions.name,
                f"{conditions.throughput_mbps:.0f} Mbps",
                result.mean_e1_deg,
                result.mean_latency_ratio,
                result.mean_latency_ms,
                result.measured_fps,
                result.mean_transmitted_bytes / 1e3,
                result.meets_target_fps,
            ]
        )
    print(
        format_table(
            [
                "network", "nominal", "e1 (deg)", "balance ratio",
                "latency (ms)", "FPS", "downlink (KB)", ">=90 FPS",
            ],
            rows,
            title=f"Q-VR network adaptation — {app.name}",
        )
    )
    print(
        "\nSlower links grow the local fovea (more rendering on the SoC); "
        "faster links shrink it (more offload) — the Table 4 behaviour."
    )


if __name__ == "__main__":
    main()
