"""Golden digest of the session planner over a generated matrix.

``Session.timeline`` turns a roster, an event script, a server and a
policy into epochs, admission decisions and frozen run specs.  This
module plans a generated matrix of such sessions — every scheduling
policy, fourteen server set-ups (including none, which plans on the
default server), four rosters, four event scripts and three
frame/warm-up pairs — plus one event-free
heterogeneous roster over the same servers, and pins one SHA-256 over
the canonical JSON of what each plan decides:

* the spec key of every frozen run spec;
* every epoch's window, serviced roster and admission decisions (the
  service level as ``float.hex()``, so the digest is bit-exact);
* every client row: index, join instant, service window and spec key.

A refactor of the planner must keep this digest.  An unexplained diff
is a behaviour change; regenerate the value only when a plan is meant
to change, with::

    PYTHONPATH=src python tests/sim/test_planner_golden.py
"""

from __future__ import annotations

import hashlib
import itertools
import json

from repro import constants
from repro.network.conditions import LTE_4G
from repro.sim.fleet import RenderFleet
from repro.sim.runner import spec_key
from repro.sim.server import POLICY_NAMES, RenderServer
from repro.sim.session import ClientSpec, Join, Leave, ProfileSwitch, Session

#: Pinned digest.  Do not edit by hand — see the module docstring.
GOLDEN = "233a4bc683e5d23269ffd4f6a428b675939dbb6d3a470e988a9c06b912565e57"

#: ``(n_frames, warmup_frames)`` pairs; every warm-up leaves a steady state.
FRAME_PAIRS = ((24, None), (36, 0), (48, 12))

SERVERS = (None, RenderServer()) + tuple(
    RenderServer(capacity_clients=capacity, overflow=overflow)
    for capacity in (0.5, 1.0, 1.5, 2.0)
    for overflow in ("degrade", "reject", "queue")
)

ROSTERS = (
    ("GRID",),
    ("GRID", "Doom3-L"),
    (ClientSpec("GRID", weight=1.5), ClientSpec("Doom3-L", profile=LTE_4G), "UT3"),
    (ClientSpec("HL2-H", weight=0.5), ClientSpec("Doom3-H", profile="wifi-drop")),
)


def _scripts(duration_ms: float) -> tuple[tuple, ...]:
    """Four event scripts scaled to the session length (client 0 always exists)."""
    at = lambda fraction: fraction * duration_ms  # noqa: E731
    return (
        (),
        (Join(at(0.2), "Doom3-L"), Leave(at(0.5), 0)),
        (
            ProfileSwitch(at(0.3), 0, "4g"),
            Join(at(0.3), ClientSpec("GRID", weight=0.5)),
            Join(at(0.6), "UT3"),
        ),
        (
            Join(at(0.25), "GRID"),
            Leave(at(0.5), 0),
            Join(at(0.5), ClientSpec("Doom3-L", weight=1.5)),
            ProfileSwitch(at(0.75), 1, "4g"),
        ),
    )


def _decisions(decisions) -> list:
    return [
        [d.client_index, d.action, float(d.service_level).hex()]
        for d in decisions
    ]


def _timeline_row(timeline) -> dict:
    return {
        "keys": [spec_key(spec) for spec in timeline.specs],
        "epochs": [
            [epoch.start_ms, epoch.end_ms, list(epoch.serviced),
             _decisions(epoch.decisions)]
            for epoch in timeline.epochs
        ],
        "clients": [
            [client.index, client.joined_ms, client.start_ms, client.end_ms,
             spec_key(client.run) if client.run is not None else None]
            for client in timeline.clients
        ],
    }


def _matrix():
    """Every session of the matrix: ``(label, session, timeline kwargs)``."""
    for policy, s, r, (n_frames, warmup) in itertools.product(
        POLICY_NAMES, range(len(SERVERS)), range(len(ROSTERS)), FRAME_PAIRS
    ):
        duration = n_frames * constants.FRAME_BUDGET_MS
        for e, events in enumerate(_scripts(duration)):
            session = Session(
                clients=ROSTERS[r], events=events, policy=policy,
                server=SERVERS[s],
            )
            kwargs = {"n_frames": n_frames, "seed": s + r, "warmup_frames": warmup}
            yield [policy, s, r, e, n_frames, warmup], session, kwargs


def plan_rows() -> list:
    """Every plan of the matrix, as canonical JSON-ready rows."""
    rows = [
        label + [_timeline_row(session.timeline(**kwargs))]
        for label, session, kwargs in _matrix()
    ]
    for policy, s in itertools.product(POLICY_NAMES, range(len(SERVERS))):
        timeline = Session(
            clients=ROSTERS[2], policy=policy, server=SERVERS[s]
        ).timeline(n_frames=30, seed=5, warmup_frames=6)
        rows.append([
            "scenario", policy, s,
            [spec_key(spec) for spec in timeline.specs],
            _decisions(timeline.epochs[0].decisions),
        ])
    return rows


def planner_digest() -> str:
    """SHA-256 over the canonical JSON of :func:`plan_rows`."""
    payload = json.dumps(plan_rows(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def test_planner_digest_matches_golden() -> None:
    assert planner_digest() == GOLDEN, (
        "the session planner changed what it decides on the golden matrix; "
        "find the change before regenerating (see the module docstring)"
    )


def test_one_server_fleet_plans_like_the_bare_server() -> None:
    """A one-server fleet with no capacity events decides what its server does.

    Checked on the ``(36, 0)`` frame pair for every server of the matrix,
    outside the digest.
    """
    checked = 0
    for label, session, kwargs in _matrix():
        server = session.server
        if server is None or (kwargs["n_frames"], kwargs["warmup_frames"]) != (36, 0):
            continue
        fleet = Session(
            clients=session.clients,
            events=session.events,
            policy=session.policy,
            fleet=RenderFleet(servers=(("a", server),), overflow=server.overflow),
        )
        assert _timeline_row(fleet.timeline(**kwargs)) == _timeline_row(
            session.timeline(**kwargs)
        ), label
        checked += 1
    assert checked == 624  # 3 policies × 13 servers × 4 rosters × 4 scripts


if __name__ == "__main__":
    print(f'GOLDEN = "{planner_digest()}"')
