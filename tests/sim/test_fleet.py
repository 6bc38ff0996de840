"""Tests for the elastic render fleet (repro.sim.fleet)."""

import pytest

from repro import constants
from repro.errors import ConfigurationError
from repro.gpu.config import RemoteServerConfig
from repro.network.profile import ShareSchedule
from repro.sim.fleet import (
    FirstFitPlacement,
    LeastLoadedPlacement,
    PLACEMENT_NAMES,
    RenderFleet,
    STALL_SHARE,
    ServerDown,
    ServerFail,
    ServerUp,
    StickyPlacement,
    fleet_from_payload,
    placement_by_name,
)
from repro.sim.metrics import ServerWindow, aggregate_server_stats
from repro.sim.server import RenderServer
from repro.sim.session import Join, Leave, Session, simulate_session


def _duration(n_frames):
    return n_frames * constants.FRAME_BUDGET_MS


def _fleet(migration="migrate", placement="least-loaded", **kwargs):
    return RenderFleet.from_capacities(
        {"a": 2.0, "b": 1.0}, placement=placement, migration=migration, **kwargs
    )


class TestFleetValidation:
    def test_needs_at_least_one_server(self):
        with pytest.raises(ConfigurationError):
            RenderFleet(servers=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            RenderFleet(servers=(("a", RenderServer()), ("a", RenderServer())))

    def test_accepts_a_mapping(self):
        fleet = RenderFleet(servers={"a": RenderServer(), "b": RenderServer()})
        assert fleet.names == ("a", "b")
        assert fleet.total_capacity == 2 * RenderServer().capacity

    def test_heterogeneous_hardware_rejected(self):
        other = RemoteServerConfig(num_gpus=32)
        with pytest.raises(ConfigurationError):
            RenderFleet(
                servers=(
                    ("a", RenderServer()),
                    ("b", RenderServer(config=other)),
                )
            )

    def test_capacities_may_differ(self):
        fleet = RenderFleet.from_capacities({"a": 2.0, "b": 0.5})
        assert fleet.server("b").capacity == 0.5

    def test_unknown_placement_and_modes_rejected(self):
        with pytest.raises(ConfigurationError):
            RenderFleet.from_capacities({"a": 1.0}, placement="round-robin")
        with pytest.raises(ConfigurationError):
            RenderFleet.from_capacities({"a": 1.0}, migration="teleport")
        with pytest.raises(ConfigurationError):
            RenderFleet.from_capacities({"a": 1.0}, overflow="evict")
        with pytest.raises(ConfigurationError):
            RenderFleet.from_capacities({"a": 1.0}, migration_penalty_ms=-1.0)

    def test_initial_must_name_fleet_servers(self):
        with pytest.raises(ConfigurationError):
            RenderFleet.from_capacities({"a": 1.0}, initial=("z",))
        fleet = RenderFleet.from_capacities({"a": 1.0, "b": 1.0}, initial=("a",))
        assert fleet.initially_up("a") and not fleet.initially_up("b")

    def test_unknown_server_lookup(self):
        with pytest.raises(ConfigurationError):
            _fleet().server("z")


class TestCapacityEventValidation:
    def test_capacity_events_require_a_fleet(self):
        with pytest.raises(ConfigurationError):
            Session(clients=("GRID",), events=(ServerFail(100.0, "a"),))

    def test_fleet_and_server_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            Session(clients=("GRID",), server=RenderServer(), fleet=_fleet())

    def test_capacity_event_needs_a_server_name(self):
        with pytest.raises(ConfigurationError):
            ServerFail(100.0)

    def test_unknown_server_rejected(self):
        with pytest.raises(ConfigurationError):
            Session(
                clients=("GRID",), events=(ServerFail(100.0, "z"),), fleet=_fleet()
            )

    def test_double_down_and_double_up_rejected(self):
        with pytest.raises(ConfigurationError):
            Session(
                clients=("GRID",),
                events=(ServerFail(100.0, "b"), ServerDown(200.0, "b")),
                fleet=_fleet(),
            )
        with pytest.raises(ConfigurationError):
            Session(
                clients=("GRID",),
                events=(ServerUp(100.0, "a"),),
                fleet=_fleet(),
            )

    def test_fail_at_t0_is_allowed(self):
        session = Session(
            clients=("GRID",), events=(ServerFail(0.0, "b"),), fleet=_fleet()
        )
        timeline = session.timeline(n_frames=60)
        # One boundary: the failure folds into the opening epoch, whose
        # server roster never includes b.
        assert len(timeline.epochs) == 1
        assert [w.server for w in timeline.epochs[0].servers] == ["a"]
        assert timeline.client(0).servers == ((0.0, "a"),)

    def test_down_then_up_at_one_instant_is_a_blip(self):
        """Rank order: Down (0) applies before Up (2) at equal t.  A
        drained blip re-seats the client gracefully — no penalty."""
        n_frames = 60
        t = 0.5 * _duration(n_frames)
        session = Session(
            clients=("GRID",),
            events=(ServerUp(t, "a"), ServerDown(t, "a")),
            fleet=RenderFleet.from_capacities({"a": 2.0}),
        )
        timeline = session.timeline(n_frames=n_frames)
        assert timeline.client(0).servers == ((0.0, "a"),)
        assert timeline.client(0).migrations == 0
        schedule = ShareSchedule(timeline.client(0).run.server_allocation)
        assert schedule.share_at(t + 1.0) > STALL_SHARE

    def test_fail_then_up_at_one_instant_still_costs_the_penalty(self):
        """A fail/up blip loses in-flight state: the client is displaced
        and pays the migration penalty even back on the same server."""
        n_frames = 60
        t = 0.5 * _duration(n_frames)
        penalty = 100.0
        session = Session(
            clients=("GRID",),
            events=(ServerFail(t, "a"), ServerUp(t, "a")),
            fleet=RenderFleet.from_capacities(
                {"a": 2.0}, migration_penalty_ms=penalty
            ),
        )
        timeline = session.timeline(n_frames=n_frames)
        client = timeline.client(0)
        assert client.servers == ((0.0, "a"),)  # same box, no migration
        assert client.migrations == 0
        schedule = ShareSchedule(client.run.server_allocation)
        assert schedule.share_at(t + penalty / 2) == STALL_SHARE
        assert schedule.share_at(t + penalty + 1.0) > STALL_SHARE


class TestPlacementPolicies:
    def test_registry(self):
        assert PLACEMENT_NAMES == ("first-fit", "least-loaded", "sticky")
        assert placement_by_name("LEAST-LOADED").name == "least-loaded"
        with pytest.raises(ConfigurationError):
            placement_by_name("round-robin")

    def test_first_fit_packs_the_first_server(self):
        policy = FirstFitPlacement()
        assert policy.place(("a", "b"), {"a": 1.0, "b": 0.0},
                            {"a": 2.0, "b": 2.0}, None) == "a"

    def test_least_loaded_spreads(self):
        policy = LeastLoadedPlacement()
        assert policy.place(("a", "b"), {"a": 1.0, "b": 0.0},
                            {"a": 2.0, "b": 2.0}, None) == "b"
        # Load is capacity-relative: 1/4 beats 0.5/1.
        assert policy.place(("a", "b"), {"a": 1.0, "b": 0.5},
                            {"a": 4.0, "b": 1.0}, None) == "a"
        # Ties break in declaration order.
        assert policy.place(("a", "b"), {"a": 0.0, "b": 0.0},
                            {"a": 2.0, "b": 2.0}, None) == "a"

    def test_sticky_prefers_the_previous_server(self):
        policy = StickyPlacement()
        assert policy.place(("a", "b"), {"a": 1.0, "b": 0.0},
                            {"a": 2.0, "b": 2.0}, "a") == "a"
        # Falls back to least-loaded when the previous server is gone.
        assert policy.place(("a", "b"), {"a": 1.0, "b": 0.0},
                            {"a": 2.0, "b": 2.0}, "z") == "b"

    def test_fleet_placement_first_fit_vs_least_loaded(self):
        n_frames = 60
        for placement, expected in (
            ("first-fit", ("a", "a")),
            ("least-loaded", ("a", "b")),
        ):
            session = Session(
                clients=("Doom3-L", "GRID"),
                events=(ServerFail(0.5 * _duration(n_frames), "b"),),
                fleet=_fleet(placement=placement),
            )
            epoch = session.timeline(n_frames=n_frames).epochs[0]
            assert tuple(name for _, name in epoch.placements) == expected


class TestMigration:
    def test_failure_migrates_the_displaced_client(self):
        n_frames = 90
        t = 0.4 * _duration(n_frames)
        session = Session(
            clients=("Doom3-L", "GRID"),
            events=(ServerFail(t, "b"),),
            fleet=_fleet(),
        )
        timeline = session.timeline(n_frames=n_frames)
        moved = timeline.client(1)
        assert moved.servers == ((0.0, "b"), (t, "a"))
        assert moved.migrations == 1
        # The run is one contiguous spec spanning the whole session.
        assert moved.run is not None
        assert moved.run.start_ms == 0.0
        assert moved.run.n_frames == n_frames
        # The failure epoch records the migration on the target server.
        assert timeline.epochs[1].servers[0].migrated_in == (1,)

    def test_migration_penalty_splices_a_stall_window(self):
        n_frames = 90
        t = 0.4 * _duration(n_frames)
        penalty = 150.0
        session = Session(
            clients=("Doom3-L", "GRID"),
            events=(ServerFail(t, "b"),),
            fleet=_fleet(migration_penalty_ms=penalty),
        )
        run = session.timeline(n_frames=n_frames).client(1).run
        schedule = ShareSchedule(run.server_allocation)
        assert schedule.share_at(t + penalty / 2) == STALL_SHARE
        assert schedule.share_at(t + penalty + 1.0) > STALL_SHARE
        assert schedule.share_at(t - 1.0) > STALL_SHARE

    def test_drained_scale_down_migrates_penalty_free(self):
        n_frames = 90
        t = 0.4 * _duration(n_frames)
        session = Session(
            clients=("Doom3-L", "GRID"),
            events=(ServerDown(t, "b", drain=True),),
            fleet=_fleet(migration_penalty_ms=150.0),
        )
        timeline = session.timeline(n_frames=n_frames)
        assert timeline.client(1).migrations == 1
        schedule = ShareSchedule(timeline.client(1).run.server_allocation)
        assert schedule.share_at(t + 1.0) > STALL_SHARE

    def test_requeue_parks_the_displaced_client(self):
        n_frames = 90
        t = 0.4 * _duration(n_frames)
        session = Session(
            clients=("Doom3-L", "GRID"),
            events=(ServerFail(t, "b"),),
            fleet=_fleet(migration="requeue"),
        )
        timeline = session.timeline(n_frames=n_frames)
        parked = timeline.client(1)
        assert parked.servers == ((0.0, "b"), (t, None))
        assert parked.migrations == 0
        schedule = ShareSchedule(parked.run.server_allocation)
        assert schedule.share_at(t + 1.0) == STALL_SHARE
        # Parked clients count as queued, not serviced, in the epoch.
        assert timeline.epochs[-1].queued == (1,)
        assert timeline.epochs[-1].serviced == (0,)

    def test_drained_scale_down_migrates_even_under_requeue(self):
        """Requeue is the naive handling of *unplanned* outages; a
        drained (planned) scale-down still migrates gracefully."""
        n_frames = 90
        t = 0.4 * _duration(n_frames)
        session = Session(
            clients=("Doom3-L", "GRID"),
            events=(ServerDown(t, "b", drain=True),),
            fleet=_fleet(migration="requeue"),
        )
        timeline = session.timeline(n_frames=n_frames)
        moved = timeline.client(1)
        assert moved.servers == ((0.0, "b"), (t, "a"))
        assert moved.migrations == 1
        schedule = ShareSchedule(moved.run.server_allocation)
        assert schedule.share_at(t + 1.0) > STALL_SHARE

    def test_requeued_client_recovers_at_a_later_event(self):
        """A parked client is re-seated when a re-planning event fires."""
        n_frames = 120
        duration = _duration(n_frames)
        t_fail, t_up = 0.3 * duration, 0.6 * duration
        session = Session(
            clients=("Doom3-L", "GRID"),
            events=(ServerFail(t_fail, "b"), ServerUp(t_up, "b")),
            fleet=_fleet(migration="requeue"),
        )
        timeline = session.timeline(n_frames=n_frames)
        revived = timeline.client(1)
        assert revived.servers == ((0.0, "b"), (t_fail, None), (t_up, "b"))
        schedule = ShareSchedule(revived.run.server_allocation)
        assert schedule.share_at(t_fail + 1.0) == STALL_SHARE
        assert schedule.share_at(t_up + _fleet().migration_penalty_ms + 1.0) > (
            STALL_SHARE
        )


class TestCapacityShrinkEdgeCases:
    def test_fleet_drained_to_zero_servers_mid_session(self):
        n_frames = 90
        duration = _duration(n_frames)
        session = Session(
            clients=("GRID", "Doom3-L"),
            events=(
                ServerDown(0.3 * duration, "a", drain=False),
                ServerFail(0.5 * duration, "b"),
            ),
            fleet=_fleet(placement="least-loaded"),
        )
        timeline = session.timeline(n_frames=n_frames)
        # After the second outage nobody renders; both clients park.
        last = timeline.epochs[-1]
        assert last.serviced == ()
        assert last.servers == ()
        assert set(last.queued) == {0, 1}
        for client in timeline.clients:
            assert client.servers[-1][1] is None
            schedule = ShareSchedule(client.run.server_allocation)
            assert schedule.share_at(0.9 * duration) == STALL_SHARE
        # The stalled session still simulates deterministically.
        result = simulate_session(session, n_frames=n_frames)
        assert len(result.per_client) == 2

    def test_queued_client_outlives_every_server(self):
        n_frames = 90
        duration = _duration(n_frames)
        session = Session(
            clients=("GRID", "Doom3-L", "Doom3-L"),
            events=(ServerFail(0.4 * duration, "a"), ServerFail(0.6 * duration, "b")),
            fleet=RenderFleet.from_capacities({"a": 1.0, "b": 1.0}),
        )
        timeline = session.timeline(n_frames=n_frames)
        ghost = timeline.client(2)
        assert ghost.run is None
        assert ghost.start_ms is None
        assert ghost.servers == ()
        result = simulate_session(session, n_frames=n_frames)
        assert result.result_for(2) is None

    def test_migration_cannot_land_on_a_server_failing_the_same_epoch(self):
        """Rank order applies every same-t failure before placement, so a
        displaced client never lands on a server dying at that instant."""
        n_frames = 90
        t = 0.4 * _duration(n_frames)
        session = Session(
            clients=("Doom3-L", "GRID"),
            events=(ServerFail(t, "b"), ServerFail(t, "a")),
            fleet=_fleet(placement="least-loaded"),
        )
        timeline = session.timeline(n_frames=n_frames)
        for client in timeline.clients:
            assert client.servers[-1] == (t, None)
            assert client.migrations == 0

    def test_double_migration_across_consecutive_failures(self):
        n_frames = 120
        duration = _duration(n_frames)
        session = Session(
            clients=("GRID",),
            events=(
                ServerFail(0.3 * duration, "a"),
                ServerFail(0.6 * duration, "b"),
            ),
            fleet=RenderFleet.from_capacities(
                {"a": 1.0, "b": 1.0, "c": 1.0}, placement="first-fit"
            ),
        )
        client = session.timeline(n_frames=n_frames).client(0)
        assert [name for _, name in client.servers] == ["a", "b", "c"]
        assert client.migrations == 2

    def test_scale_up_promotes_a_waiting_client(self):
        n_frames = 90
        duration = _duration(n_frames)
        t_join, t_up = 0.2 * duration, 0.5 * duration
        session = Session(
            clients=("GRID", "Doom3-L"),
            events=(Join(t_join, "Doom3-L"), ServerUp(t_up, "b")),
            fleet=RenderFleet.from_capacities(
                {"a": 2.0, "b": 1.0}, initial=("a",)
            ),
        )
        timeline = session.timeline(n_frames=n_frames)
        joiner = timeline.client(2)
        assert joiner.start_ms == pytest.approx(t_up)
        assert joiner.servers == ((t_up, "b"),)
        assert joiner.run.start_ms == pytest.approx(t_up)


class TestDegradeOverflow:
    """A degrade fleet seats everyone and slows each overloaded server."""

    def _timeline(self, events=(), n_frames=60):
        session = Session(
            clients=("GRID", "Doom3-L", "UT3", "GRID"),
            events=events,
            fleet=RenderFleet.from_capacities(
                {"a": 1.0, "b": 0.5}, placement="least-loaded", overflow="degrade"
            ),
        )
        return session.timeline(n_frames=n_frames)

    def test_service_level_is_capacity_over_load_per_server(self):
        duration = _duration(60)
        timeline = self._timeline(
            (Leave(0.3 * duration, 0), Join(0.5 * duration, "HL2-H"))
        )
        degraded = 0
        for epoch in timeline.epochs:
            levels = {d.client_index: d for d in epoch.decisions}
            for window in epoch.servers:
                expected = min(1.0, window.capacity / window.load)
                for client in window.clients:
                    decision = levels[client]
                    assert decision.service_level == expected
                    assert decision.action == (
                        "degrade" if window.load > window.capacity else "admit"
                    )
                    degraded += decision.action == "degrade"
        assert degraded > 0

    def test_level_scales_each_server_groups_fair_share(self):
        timeline = self._timeline()
        (epoch,) = timeline.epochs
        assert {w.server: w.clients for w in epoch.servers} == {
            "a": (0, 2, 3),
            "b": (1,),
        }
        for window in epoch.servers:
            level = min(1.0, window.capacity / window.load)
            fair = min(1.0 / (len(window.clients) * 0.9), 1.0)
            for index in window.clients:
                run = timeline.client(index).run
                # The downlink is split session-wide and never degraded.
                assert run.downlink_allocation == ((0.0, pytest.approx(1 / 3.6)),)
                assert run.server_allocation == ((0.0, pytest.approx(fair * level)),)

    def test_no_client_queues_while_a_server_is_up(self):
        duration = _duration(60)
        timeline = self._timeline(
            (
                ServerFail(0.2 * duration, "b"),
                Join(0.4 * duration, "Doom3-H"),
                ServerDown(0.6 * duration, "a"),
                ServerUp(0.8 * duration, "b"),
            )
        )
        for epoch in timeline.epochs:
            if epoch.servers:
                assert epoch.queued == ()
                assert set(epoch.serviced) == {d.client_index for d in epoch.decisions}
            else:
                assert epoch.serviced == ()
        assert not timeline.epochs[3].servers  # both servers down

    def test_payload_accepts_degrade(self):
        fleet = fleet_from_payload(
            {"servers": {"a": 1.0}, "overflow": "degrade"}, source="test"
        )
        assert fleet.overflow == "degrade"


class TestServerStats:
    def test_timeline_aggregates_per_server_stats(self):
        n_frames = 90
        t = 0.4 * _duration(n_frames)
        session = Session(
            clients=("Doom3-L", "GRID"),
            events=(ServerFail(t, "b"),),
            fleet=_fleet(),
        )
        timeline = session.timeline(n_frames=n_frames)
        stats = {s.server: s for s in timeline.server_stats}
        assert set(stats) == {"a", "b"}
        assert stats["b"].up_ms == pytest.approx(t)
        assert stats["a"].up_ms == pytest.approx(timeline.duration_ms)
        assert stats["a"].migrations_in == 1
        assert stats["a"].distinct_clients == 2
        assert stats["b"].peak_load == 1.0

    def test_aggregate_handles_zero_length_and_empty_windows(self):
        windows = [
            ServerWindow("a", 0.0, 100.0, 2.0, 1.0, clients=(0,)),
            ServerWindow("a", 100.0, 100.0, 2.0, 2.0, clients=(0, 1)),
            ServerWindow("a", 100.0, 200.0, 2.0, 0.0),
        ]
        (stats,) = aggregate_server_stats(windows)
        assert stats.up_ms == pytest.approx(200.0)
        assert stats.mean_utilisation == pytest.approx(0.25)
        assert stats.peak_load == 2.0
        assert stats.distinct_clients == 2
        assert aggregate_server_stats([]) == ()


class TestShareScheduleStall:
    def test_with_stall_splices_and_resumes(self):
        schedule = ShareSchedule(((0.0, 0.5), (200.0, 0.8)))
        stalled = schedule.with_stall(100.0, 0.05)
        assert stalled.share_at(50.0) == 0.05
        assert stalled.share_at(150.0) == 0.5
        assert stalled.share_at(250.0) == 0.8

    def test_with_stall_mid_segment_resume(self):
        schedule = ShareSchedule(((0.0, 0.5), (200.0, 0.8)))
        stalled = schedule.with_stall(300.0, 0.05)
        assert stalled.segments == ((0.0, 0.05), (300.0, 0.8))

    def test_with_stall_identity_and_validation(self):
        schedule = ShareSchedule(((0.0, 0.5),))
        assert schedule.with_stall(0.0, 0.05) is schedule
        with pytest.raises(ConfigurationError):
            schedule.with_stall(10.0, 0.0)
