#!/usr/bin/env python3
"""Render-fleet failover: migration vs naive re-queue after a server dies.

The remote tier of a collaborative session is not one fixed box but an
elastic, failure-prone fleet.  This example builds a two-server
:class:`repro.sim.fleet.RenderFleet` (a: 2.0, b: 1.0 client-equivalents,
least-loaded placement), lets a heavy client land alone on server ``b``,
then fails ``b`` mid-session and compares the two failover modes:

* ``migrate`` — the displaced client is re-seated on the surviving
  server, paying a migration penalty (a starvation window spliced into
  its share schedule while state transfers), then keeps rendering;
* ``requeue`` — the naive baseline: the client drops to the back of the
  admission queue and stalls at the starvation share, waiting for a
  re-planning event that never comes.

The displaced client's p99 tail frame rate inside the failure window
tells the story; the incumbent pays a small contention tax for hosting
the refugee.  The same scenario runs from the shell via::

    python -m repro scenarios --clients Doom3-L GRID \
        --fleet examples/fleet.json --events examples/fleet_events.json

Run:
    python examples/fleet_failover.py [frames]
"""

import sys

from repro import constants
from repro.analysis import format_session
from repro.analysis.experiments import default_failover_session
from repro.sim.session import simulate_session


def main() -> None:
    n_frames = int(sys.argv[1]) if len(sys.argv) > 1 else 180
    duration_ms = n_frames * constants.FRAME_BUDGET_MS
    fail_ms = 0.4 * duration_ms
    window = (fail_ms, fail_ms + 0.4 * duration_ms)

    for mode in ("least-loaded", "requeue"):
        session = default_failover_session(n_frames, mode=mode)
        result = simulate_session(session, n_frames=n_frames)
        print(format_session(result, f"{mode}: server b fails at {fail_ms:.0f} ms"))
        for index in result.timeline.serviced_indices:
            stats = result.client_window(index, *window)
            p99 = f"{stats.p99_fps:.1f} FPS" if stats is not None else "-"
            print(
                f"window p99 {window[0]:.0f}-{window[1]:.0f} ms, "
                f"client {index}: {p99}"
            )
        print()


if __name__ == "__main__":
    main()
