#!/usr/bin/env python3
"""Quickstart: run Q-VR against every baseline on one game.

Simulates all seven system designs of the paper on Doom3-H under the
default platform (500 MHz mobile GPU, Wi-Fi), then prints the end-to-end
latency, frame rate, adapted eccentricity and downlink payload of each —
a miniature Fig. 12 for a single title.

Run:
    python examples/quickstart.py [app-name]
"""

import sys

from repro import run_comparison, speedup_over
from repro.analysis.report import format_table


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "Doom3-H"
    print(f"Simulating all system designs on {app} (500 MHz, Wi-Fi)...")
    results = run_comparison(
        app,
        systems=("local", "remote", "static", "ffr", "dfr", "sw-qvr", "qvr"),
        n_frames=240,
    )

    rows = []
    for name, result in results.items():
        rows.append(
            [
                name,
                result.mean_latency_ms,
                f"{speedup_over(results, name):.2f}x",
                result.measured_fps,
                result.mean_e1_deg,
                result.mean_transmitted_bytes / 1e3,
                result.meets_mtp,
                result.meets_target_fps,
            ]
        )
    print()
    print(
        format_table(
            [
                "design", "latency (ms)", "speedup", "FPS",
                "e1 (deg)", "downlink (KB)", "<25ms MTP", ">=90 FPS",
            ],
            rows,
            title=f"Q-VR reproduction — {app}",
        )
    )
    qvr = results["qvr"]
    print(
        f"\nQ-VR settles at e1 = {qvr.mean_e1_deg:.1f} deg with a "
        f"T_remote/T_local balance ratio of {qvr.mean_latency_ratio:.2f}."
    )


if __name__ == "__main__":
    main()
