"""Generated-case properties of the epoch walker (``plan_fleet_timeline``).

Random rosters and event scripts (joins, leaves, link switches and
server up/down/fail events, several often at one instant) over one- to
three-server fleets.  Each drawn script is replayed in application order
and trimmed to the events that are valid at that point, so every example
is a session the planner must accept.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import constants
from repro.sim.fleet import RenderFleet, ServerDown, ServerFail, ServerUp
from repro.sim.multiuser import ClientSpec
from repro.sim.runner import spec_key
from repro.sim.session import Join, Leave, ProfileSwitch, Session

N_FRAMES = 24
DURATION_MS = N_FRAMES * constants.FRAME_BUDGET_MS
APPS = ("GRID", "Doom3-L", "UT3")
#: Exact binary fractions, so summed server loads carry no rounding.
WEIGHTS = (0.5, 1.0, 1.5)
KINDS = ("join", "leave", "switch", "up", "down", "drain", "fail")

clients = st.builds(
    ClientSpec, app=st.sampled_from(APPS), weight=st.sampled_from(WEIGHTS)
)
ops = st.lists(
    st.tuples(
        st.integers(1, 5),  # instant, in sixths of the session
        st.sampled_from(KINDS),
        st.integers(0, 7),  # client or server selector
        clients,
    ),
    min_size=2,
    max_size=10,
)
fleets = st.builds(
    lambda capacities, placement, migration: RenderFleet.from_capacities(
        dict(zip("abc", capacities)), placement=placement, migration=migration
    ),
    st.lists(st.sampled_from((0.5, 1.0, 1.5, 2.0)), min_size=1, max_size=3),
    st.sampled_from(("first-fit", "least-loaded", "sticky")),
    st.sampled_from(("migrate", "requeue")),
)


def _event(slot, kind, target, spec, names):
    t = slot * DURATION_MS / 6
    server = names[target % len(names)]
    return {
        "join": lambda: Join(t, spec),
        "leave": lambda: Leave(t, target),
        "switch": lambda: ProfileSwitch(t, target, "4g"),
        "up": lambda: ServerUp(t, server),
        "down": lambda: ServerDown(t, server, drain=False),
        "drain": lambda: ServerDown(t, server),
        "fail": lambda: ServerFail(t, server),
    }[kind]()


def _valid_events(drawn, n_initial, names):
    """The drawn events that replay validly, in application order."""
    events = sorted(
        (_event(*op, names) for op in drawn), key=lambda e: (e.t_ms, e.rank)
    )
    known, left, up, kept = n_initial, set(), set(names), []
    switched = set()  # (instant, client): one link switch per client per instant
    for event in events:
        if isinstance(event, Join):
            known += 1
        elif isinstance(event, (Leave, ProfileSwitch)):
            if event.client >= known or event.client in left:
                continue
            if isinstance(event, Leave):
                left.add(event.client)
            elif (event.t_ms, event.client) in switched:
                continue
            else:
                switched.add((event.t_ms, event.client))
        elif isinstance(event, ServerUp):
            if event.server in up:
                continue
            up.add(event.server)
        else:
            if event.server not in up:
                continue
            up.discard(event.server)
        kept.append(event)
    return tuple(kept)


def _session(roster, drawn, fleet, overflow, policy="fair-share"):
    fleet = RenderFleet(
        servers=fleet.servers,
        placement=fleet.placement,
        migration=fleet.migration,
        overflow=overflow,
    )
    events = _valid_events(drawn, len(roster), fleet.names)
    return Session(clients=roster, events=events, fleet=fleet, policy=policy)


rosters = st.lists(clients, min_size=1, max_size=4).map(tuple)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    roster=rosters,
    drawn=ops,
    fleet=fleets,
    overflow=st.sampled_from(("queue", "reject")),
)
def test_queue_and_reject_never_overload_a_server(roster, drawn, fleet, overflow):
    timeline = _session(roster, drawn, fleet, overflow).timeline(n_frames=N_FRAMES)
    for epoch in timeline.epochs:
        for window in epoch.servers:
            assert window.load <= window.capacity
        assert all(d.action != "degrade" for d in epoch.decisions)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    roster=rosters,
    drawn=ops,
    fleet=fleets,
    overflow=st.sampled_from(("queue", "reject", "degrade")),
)
def test_a_serviced_client_keeps_its_surviving_server(roster, drawn, fleet, overflow):
    session = _session(roster, drawn, fleet, overflow)
    timeline = session.timeline(n_frames=N_FRAMES)
    for before, after in zip(timeline.epochs, timeline.epochs[1:]):
        at_boundary = [e for e in session.events if e.t_ms == after.start_ms]
        gone = {e.client for e in at_boundary if isinstance(e, Leave)}
        lost = {
            e.server
            for e in at_boundary
            if isinstance(e, (ServerDown, ServerFail))
        }
        up = {window.server for window in after.servers}
        for client, server in before.placements:
            if client in gone or server in lost or server not in up:
                continue
            assert client in after.serviced
            assert after.server_of(client) == server


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    roster=rosters,
    drawn=ops,
    fleet=fleets,
    overflow=st.sampled_from(("queue", "reject", "degrade")),
    policy=st.sampled_from(("fair-share", "deadline")),
)
def test_same_instant_declaration_order_across_ranks_is_irrelevant(
    roster, drawn, fleet, overflow, policy
):
    session = _session(roster, drawn, fleet, overflow, policy)
    # A stable sort on the rank alone flips the declared order of events
    # of different ranks (at one instant and across instants) while
    # keeping the order within each rank.
    flipped = Session(
        clients=session.clients,
        events=tuple(sorted(session.events, key=lambda e: -e.rank)),
        fleet=session.fleet,
        policy=policy,
    )
    keys = [spec_key(s) for s in session.timeline(n_frames=N_FRAMES).specs]
    assert keys == [spec_key(s) for s in flipped.timeline(n_frames=N_FRAMES).specs]
