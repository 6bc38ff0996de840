#!/usr/bin/env python3
"""Session churn: clients joining, queueing, and starting late.

Collaborative VR sessions are dynamic: clients join mid-session, leave
early, and roam between links.  This example builds an event-driven
:class:`repro.sim.session.Session` — two incumbents filling a
two-client server in queue mode, a third client joining mid-session and
waiting for the capacity a departing incumbent frees — and shows how
the server re-plans at every event: the joiner genuinely *starts late*
(nonzero start, fewer frames) instead of sitting out, and deadline
scheduling shields the heavy incumbent's tail frame rate through the
contention window better than fair sharing.

Run:
    python examples/session_churn.py [frames]
"""

import sys

from repro.analysis.experiments import default_churn_session
from repro.analysis.report import format_session
from repro.sim.session import simulate_session


def main() -> None:
    n_frames = int(sys.argv[1]) if len(sys.argv) > 1 else 150

    for policy in ("fair-share", "deadline"):
        session = default_churn_session(n_frames, policy=policy)
        result = simulate_session(session, n_frames=n_frames)
        print(format_session(result, "qvr"))
        print()


if __name__ == "__main__":
    main()
