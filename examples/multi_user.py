#!/usr/bin/env python3
"""Multi-user deployment: Q-VR clients sharing a server and a link.

The paper's opening promise is planet-scale VR for "users around the
world, regardless of their hardware and network conditions".  This example
scales a shared edge deployment from 1 to 6 co-located Q-VR clients and
shows how each client's LIWC independently re-balances as its share of the
server and downlink shrinks: fovea grow, latencies rise, and the number of
clients holding 90 Hz falls.

Run:
    python examples/multi_user.py [app-name]
"""

import sys

from repro.analysis.report import format_table
from repro.sim.session import Session, simulate_session


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "HL2-L"
    rows = []
    for n_clients in (1, 2, 4, 6):
        result = simulate_session(Session(clients=(app,) * n_clients), n_frames=150)
        rows.append(
            [
                n_clients,
                result.mean_e1_deg,
                result.mean_latency_ms,
                result.mean_fps,
                f"{result.clients_meeting_fps}/{n_clients}",
            ]
        )
    print(
        format_table(
            ["clients", "mean e1 (deg)", "latency (ms)", "FPS/client", ">=90 FPS"],
            rows,
            title=f"Shared-infrastructure scaling — {app} per client",
        )
    )
    print(
        "\nEach client's controller independently migrates work onto its own "
        "SoC as the shared server/link saturates — Q-VR's per-user "
        "adaptation is what makes the shared deployment degrade gracefully."
    )


if __name__ == "__main__":
    main()
