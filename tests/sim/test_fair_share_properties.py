"""Fair share on the default server: the uniform division, as schedules.

An event-free fair-share session plans on the epoch walker like every
other session, with ``server=None`` meaning the default
:class:`~repro.sim.server.RenderServer` (eight client-equivalents,
``"degrade"`` overflow).  Within that capacity every client of ``n``
equal clients holds one flat share ``1 / (n * efficiency)`` of the
server and of the session downlink, whatever the link does over time,
capped at the whole resource.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.conditions import LTE_4G, WIFI
from repro.network.profile import (
    PROFILES,
    OffsetProfile,
    SwitchedProfile,
    TraceProfile,
    as_profile,
)
from repro.sim.server import RenderServer
from repro.sim.session import ClientSpec, Session
from repro.sim.systems import PlatformConfig

N_FRAMES = 24

#: One network of every kind a session platform can carry.
NETWORKS = (
    WIFI,
    as_profile(LTE_4G),
    PROFILES["wifi-drop"],
    PROFILES["wifi-markov"],
    TraceProfile(
        base=WIFI, times_ms=(0.0, 90.0, 180.0), throughput_mbps=(150.0, 20.0, 90.0)
    ),
    OffsetProfile(PROFILES["4g-drop"], 850.0),
    SwitchedProfile(((0.0, as_profile(WIFI)), (100.0, PROFILES["wifi-drop"]))),
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    n=st.integers(1, 8),
    weight=st.sampled_from((0.25, 0.5, 1.0)),
    efficiency=st.floats(
        min_value=0.0, max_value=1.0, exclude_min=True, allow_nan=False
    ),
    network=st.sampled_from(NETWORKS),
    seed=st.integers(0, 50),
)
def test_equal_clients_hold_one_uniform_share(n, weight, efficiency, network, seed):
    session = Session(
        clients=(ClientSpec("GRID", weight=weight),) * n,
        platform=PlatformConfig(network=network),
        sharing_efficiency=efficiency,
    )
    timeline = session.timeline(n_frames=N_FRAMES, seed=seed)
    expected = min(1.0 / (n * efficiency), 1.0)
    assert [d.action for d in timeline.epochs[0].decisions] == ["admit"] * n
    assert len(timeline.specs) == n
    for spec in timeline.specs:
        assert spec.shared_clients == n
        assert len(spec.server_allocation) == 1
        assert len(spec.downlink_allocation) == 1
        for (start, share) in (*spec.server_allocation, *spec.downlink_allocation):
            assert start == 0.0
            assert share == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_a_roster_over_the_default_capacity_degrades():
    """Nine full-demand clients overload the default server's eight."""
    assert RenderServer().capacity == 8.0
    timeline = Session(clients=("GRID",) * 9).timeline(n_frames=N_FRAMES)
    decisions = timeline.epochs[0].decisions
    assert [d.action for d in decisions] == ["degrade"] * 9
    assert all(d.service_level == 8.0 / 9.0 for d in decisions)
    fair = 1.0 / (9 * 0.9)
    for spec in timeline.specs:
        (server,) = spec.server_allocation
        (downlink,) = spec.downlink_allocation
        # The server withholds service; the link share is not its to cut.
        assert server[1] == pytest.approx(fair * 8.0 / 9.0, rel=1e-15)
        assert downlink[1] == pytest.approx(fair, rel=1e-15)
