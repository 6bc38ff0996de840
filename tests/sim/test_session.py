"""Tests for the event-driven session surface (repro.sim.session)."""

import pickle

import pytest

from repro import constants
from repro.errors import ConfigurationError, NetworkError
from repro.network.conditions import LTE_4G, WIFI
from repro.network.profile import (
    ConstantProfile,
    OffsetProfile,
    SwitchedProfile,
    TraceProfile,
)
from repro.sim.multiuser import ClientSpec, MultiUserScenario
from repro.sim.runner import BatchEngine, RunSpec, spec_key
from repro.sim.server import RenderServer
from repro.sim.session import (
    Join,
    Leave,
    ProfileSwitch,
    Session,
    events_from_motion,
    simulate_session,
)
from repro.sim.systems import PlatformConfig


def _drop_trace(n_frames):
    frame_ms = constants.FRAME_BUDGET_MS
    return TraceProfile(
        base=WIFI,
        times_ms=(0.0, 0.3 * n_frames * frame_ms, 0.7 * n_frames * frame_ms),
        throughput_mbps=(200.0, 30.0, 200.0),
        label="test-drop",
    )


def _duration(n_frames):
    return n_frames * constants.FRAME_BUDGET_MS


def _queue_session(n_frames, events, clients=None, capacity=2.0, policy="fair-share"):
    return Session(
        clients=clients
        if clients is not None
        else (ClientSpec("GRID"), ClientSpec("Doom3-L")),
        events=events,
        platform=PlatformConfig(network=_drop_trace(n_frames)),
        policy=policy,
        server=RenderServer(capacity_clients=capacity, overflow="queue"),
    )


class TestEventValidation:
    def test_event_time_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Join(0.0, "GRID")
        with pytest.raises(ConfigurationError):
            Leave(-5.0, client=0)

    def test_join_needs_a_spec(self):
        with pytest.raises(ConfigurationError):
            Join(100.0)

    def test_join_promotes_app_names(self):
        event = Join(100.0, "GRID")
        assert event.spec == ClientSpec("GRID")

    def test_switch_coerces_profile_names(self):
        event = ProfileSwitch(100.0, client=0, profile="4g")
        assert event.profile == ConstantProfile(LTE_4G)

    def test_unknown_client_index_rejected(self):
        with pytest.raises(ConfigurationError):
            Session(clients=("GRID",), events=(Leave(100.0, client=3),))

    def test_join_extends_the_index_space(self):
        # Client 1 only exists because the join precedes the leave.
        Session(
            clients=("GRID",),
            events=(Join(100.0, "Doom3-L"), Leave(200.0, client=1)),
        )
        with pytest.raises(ConfigurationError):
            Session(
                clients=("GRID",),
                events=(Leave(50.0, client=1), Join(100.0, "Doom3-L")),
            )

    def test_double_leave_rejected(self):
        with pytest.raises(ConfigurationError):
            Session(
                clients=("GRID", "Doom3-L"),
                events=(Leave(100.0, client=1), Leave(200.0, client=1)),
            )

    def test_switch_after_leave_rejected(self):
        with pytest.raises(ConfigurationError):
            Session(
                clients=("GRID", "Doom3-L"),
                events=(
                    Leave(100.0, client=1),
                    ProfileSwitch(200.0, client=1, profile="4g"),
                ),
            )

    def test_same_instant_switches_for_one_client_rejected(self):
        events = (
            ProfileSwitch(100.0, client=0, profile="4g"),
            ProfileSwitch(100.0, client=0, profile="wifi"),
        )
        with pytest.raises(ConfigurationError, match=r"client 0 at 100 ms"):
            Session(clients=("GRID", "Doom3-L"), events=events, policy="deadline")
        # One switch per client per instant still plans.
        Session(
            clients=("GRID", "Doom3-L"),
            events=(events[0], ProfileSwitch(100.0, client=1, profile="wifi")),
            policy="deadline",
        ).timeline(n_frames=30)

    def test_session_needs_a_client(self):
        with pytest.raises(ConfigurationError):
            Session(clients=())
        Session(clients=(), events=(Join(100.0, "GRID"),))  # joiner suffices

    def test_event_past_session_end_rejected(self):
        session = Session(
            clients=("GRID",), events=(Join(1e9, "Doom3-L"),)
        )
        with pytest.raises(ConfigurationError):
            session.timeline(n_frames=60)


class TestLegacyParity:
    """Single-epoch sessions reproduce MultiUserScenario.plan() exactly."""

    @pytest.mark.parametrize("policy", ["fair-share", "weighted", "deadline"])
    def test_same_specs_and_cache_keys_across_policies(self, policy):
        scenario = MultiUserScenario.heterogeneous(
            (ClientSpec("GRID"), ClientSpec("Doom3-L")),
            platform=PlatformConfig(network=_drop_trace(120)),
            policy=policy,
        )
        plan = scenario.plan(n_frames=60, seed=3)
        timeline = scenario.as_session().timeline(n_frames=60, seed=3)
        assert timeline.specs == plan.specs
        assert [spec_key(s) for s in timeline.specs] == [
            spec_key(s) for s in plan.specs
        ]
        assert timeline.plan() == plan

    def test_legacy_fair_share_keys_frozen_since_pr3(self):
        """The PR 2/3 golden keys survive the session redesign."""
        assert spec_key(RunSpec(system="qvr", app="GRID")) == (
            "85f0b5831502e52c523945418f1a48f7476244d2d564ef4b1231c3dd9ae47135"
        )
        assert spec_key(RunSpec(system="qvr", app="GRID", shared_clients=3)) == (
            "eb189f7d1ac2b0142e26bac6123871e4b55724ae03c97111e76efa8f43af49d9"
        )

    def test_neutral_start_ms_keeps_cache_keys(self):
        base = RunSpec(system="qvr", app="GRID")
        assert spec_key(base) == spec_key(RunSpec(system="qvr", app="GRID",
                                                  start_ms=0.0))
        late = RunSpec(system="qvr", app="GRID", start_ms=500.0)
        assert spec_key(late) != spec_key(base)

    @pytest.mark.parametrize("policy", ["fair-share", "deadline"])
    def test_bit_identical_results(self, policy):
        scenario = MultiUserScenario.heterogeneous(
            (ClientSpec("GRID"), ClientSpec("Doom3-L")),
            platform=PlatformConfig(network=_drop_trace(120)),
            policy=policy,
        )
        engine = BatchEngine()
        via_plan = engine.run_specs(scenario.plan(n_frames=40).specs)
        via_session = engine.run_specs(
            scenario.as_session().timeline(n_frames=40).specs
        )
        assert pickle.dumps(list(via_plan.values())) == pickle.dumps(
            list(via_session.values())
        )

    def test_multi_epoch_timeline_refuses_the_static_view(self):
        session = _queue_session(60, (Leave(100.0, client=1),))
        timeline = session.timeline(n_frames=60)
        with pytest.raises(ConfigurationError):
            timeline.plan()


class TestWarmupClamp:
    """A warm-up with no steady state left clamps to zero on every path."""

    @pytest.mark.parametrize(
        "server, policy",
        [
            (None, "fair-share"),  # the legacy path
            (None, "deadline"),
            (RenderServer(capacity_clients=1.0, overflow="queue"), "fair-share"),
        ],
    )
    def test_session_clamps_an_oversized_warmup(self, server, policy):
        session = Session(clients=("GRID", "Doom3-L"), server=server, policy=policy)
        timeline = session.timeline(n_frames=3, warmup_frames=5)
        assert timeline.specs
        assert all(spec.warmup_frames == 0 for spec in timeline.specs)

    @pytest.mark.parametrize("server", [None, RenderServer()])
    def test_scenario_plan_clamps_an_oversized_warmup(self, server):
        scenario = MultiUserScenario.uniform("GRID", 2, server=server)
        plan = scenario.plan(n_frames=3, warmup_frames=5)
        assert [spec.warmup_frames for spec in plan.specs] == [0, 0]
        assert [spec.n_frames for spec in plan.specs] == [3, 3]


class TestQueuePromotion:
    def test_queued_client_starts_late_when_capacity_frees(self):
        n_frames = 90
        duration = _duration(n_frames)
        session = _queue_session(
            n_frames,
            (Join(0.2 * duration, "Doom3-L"), Leave(0.5 * duration, client=1)),
        )
        timeline = session.timeline(n_frames=n_frames)
        joiner = timeline.client(2)
        assert joiner.joined_ms == pytest.approx(0.2 * duration)
        assert joiner.start_ms == pytest.approx(0.5 * duration)
        assert joiner.queued_ms == pytest.approx(0.3 * duration)
        assert joiner.run is not None
        assert joiner.run.start_ms == pytest.approx(0.5 * duration)
        assert 0 < joiner.run.n_frames < n_frames
        # The middle epoch shows the client waiting in the queue.
        assert timeline.epochs[1].queued == (2,)
        assert timeline.epochs[2].serviced == (0, 2)

    def test_capacity_freed_exactly_at_the_join_boundary(self):
        """A leave and a join at the same instant: the joiner never queues."""
        n_frames = 60
        t = 0.4 * _duration(n_frames)
        session = _queue_session(
            n_frames, (Leave(t, client=1), Join(t, "Doom3-L"))
        )
        timeline = session.timeline(n_frames=n_frames)
        joiner = timeline.client(2)
        assert joiner.start_ms == pytest.approx(t)
        assert joiner.queued_ms == 0.0
        assert not any(epoch.queued for epoch in timeline.epochs)

    def test_multiple_queued_clients_promote_first_come_first_served(self):
        n_frames = 90
        duration = _duration(n_frames)
        session = _queue_session(
            n_frames,
            (
                Join(0.1 * duration, "Doom3-L"),   # client 2, queues first
                Join(0.2 * duration, "GRID"),      # client 3, queues second
                Leave(0.4 * duration, client=1),   # frees one slot
                Leave(0.6 * duration, client=0),   # frees the second
            ),
        )
        timeline = session.timeline(n_frames=n_frames)
        first, second = timeline.client(2), timeline.client(3)
        assert first.start_ms == pytest.approx(0.4 * duration)
        assert second.start_ms == pytest.approx(0.6 * duration)
        assert first.start_ms < second.start_ms

    def test_promotion_is_first_fit_not_head_of_line_blocking(self):
        """A light late-comer may pass a heavy queued client: freed
        capacity goes to the oldest queued client *that fits* (the
        server's greedy admission), not strictly head-of-line."""
        n_frames = 90
        duration = _duration(n_frames)
        session = _queue_session(
            n_frames,
            (
                Join(0.1 * duration, ClientSpec("GRID", weight=2.0)),  # client 2
                Join(0.2 * duration, ClientSpec("Doom3-L")),           # client 3
                Leave(0.4 * duration, client=1),  # frees 1.0 of capacity
            ),
        )
        timeline = session.timeline(n_frames=n_frames)
        heavy, light = timeline.client(2), timeline.client(3)
        # The freed slot fits the light client, not the heavy one.
        assert light.start_ms == pytest.approx(0.4 * duration)
        assert heavy.run is None
        assert timeline.epochs[-1].queued == (2,)

    def test_promoted_client_is_not_demoted_when_an_older_queued_fits(self):
        """A running client outranks every waiter, even one that joined
        earlier: freed capacity must not demote the promoted client to
        re-seat the older, heavier one."""
        n_frames = 120
        duration = _duration(n_frames)
        session = _queue_session(
            n_frames,
            (
                Join(0.2 * duration, ClientSpec("GRID", weight=1.5)),  # client 1
                Join(0.4 * duration, ClientSpec("Doom3-L")),           # client 2
                Leave(0.6 * duration, client=0),  # frees 1.0
            ),
            clients=(ClientSpec("GRID"),),
        )
        timeline = session.timeline(n_frames=n_frames)
        # Client 2 (w=1) was admitted first-fit past queued client 1
        # (w=1.5); after the leave, 1 + 1.5 > 2 still: client 1 must
        # keep waiting rather than evict the running client 2.
        assert timeline.client(2).start_ms == pytest.approx(0.4 * duration)
        assert timeline.client(2).end_ms is None
        assert timeline.client(1).run is None
        assert timeline.epochs[-1].serviced == (2,)
        assert timeline.epochs[-1].queued == (1,)
        # Every epoch's serviced roster matches the frozen runs: a
        # serviced client stays serviced until it leaves or the session
        # ends.
        for client in timeline.clients:
            if client.run is None:
                continue
            for epoch in timeline.epochs:
                if client.start_ms <= epoch.start_ms and (
                    client.end_ms is None or epoch.start_ms < client.end_ms
                ):
                    assert client.index in epoch.serviced

    def test_client_leaving_while_still_queued_never_runs(self):
        n_frames = 60
        duration = _duration(n_frames)
        session = _queue_session(
            n_frames,
            (Join(0.2 * duration, "Doom3-L"), Leave(0.5 * duration, client=2)),
        )
        timeline = session.timeline(n_frames=n_frames)
        ghost = timeline.client(2)
        assert ghost.start_ms is None
        assert ghost.run is None
        assert ghost.end_ms == pytest.approx(0.5 * duration)
        assert timeline.serviced_indices == (0, 1)
        # The simulation simply has no result for it.
        result = simulate_session(session, n_frames=n_frames)
        assert result.result_for(2) is None
        assert len(result.per_client) == 2

    def test_rejection_is_final_even_when_capacity_frees(self):
        """Unlike queue mode, overflow='reject' turns the client away for
        good: a later leave must not resurrect it."""
        n_frames = 60
        duration = _duration(n_frames)
        session = Session(
            clients=(ClientSpec("GRID"), ClientSpec("Doom3-L")),
            events=(
                Join(0.2 * duration, "Doom3-L"),
                Leave(0.5 * duration, client=1),
            ),
            platform=PlatformConfig(network=_drop_trace(n_frames)),
            server=RenderServer(capacity_clients=2.0, overflow="reject"),
        )
        timeline = session.timeline(n_frames=n_frames)
        joiner = timeline.client(2)
        assert joiner.run is None
        assert joiner.start_ms is None
        assert not any(epoch.queued for epoch in timeline.epochs)
        # After the leave, only the surviving incumbent is serviced.
        assert timeline.epochs[-1].serviced == (0,)

    def test_incumbents_are_never_evicted_by_a_join(self):
        n_frames = 60
        session = _queue_session(
            n_frames, (Join(0.3 * _duration(n_frames), "GRID"),)
        )
        timeline = session.timeline(n_frames=n_frames)
        assert timeline.client(0).start_ms == 0.0
        assert timeline.client(1).start_ms == 0.0
        assert timeline.client(2).run is None  # queued forever
        assert timeline.epochs[-1].queued == (2,)


class TestEpochPlanning:
    def test_leave_re_allocates_the_survivors_share(self):
        """After the only other client leaves, the survivor's share grows."""
        n_frames = 60
        t = 0.5 * _duration(n_frames)
        session = _queue_session(n_frames, (Leave(t, client=1),))
        timeline = session.timeline(n_frames=n_frames)
        survivor = timeline.client(0).run
        assert survivor is not None
        schedule = dict(survivor.server_allocation)
        before = [s for start, s in survivor.server_allocation if start < t]
        after = [s for start, s in survivor.server_allocation if start >= t]
        assert schedule[0.0] == before[0]
        assert max(after) > max(before)

    def test_fair_share_event_session_caps_lone_client_at_full_resource(self):
        n_frames = 60
        session = _queue_session(n_frames, (Leave(300.0, client=1),))
        timeline = session.timeline(n_frames=n_frames)
        survivor = timeline.client(0).run
        # 1 / (1 * 0.9) capped at 1.0: a lone client uses the whole server.
        assert any(share == 1.0 for _, share in survivor.server_allocation)

    def test_leaver_runs_a_prorated_frame_count(self):
        n_frames = 80
        t = 0.25 * _duration(n_frames)
        session = _queue_session(n_frames, (Leave(t, client=1),))
        leaver = session.timeline(n_frames=n_frames).client(1)
        assert leaver.end_ms == pytest.approx(t)
        assert leaver.run.n_frames == 20
        assert leaver.run.warmup_frames < 20

    def test_a_later_switch_cannot_rewrite_earlier_shared_epochs(self):
        """Event locality: adding a future roam must not retroactively
        privatise the client's pre-switch time on the shared downlink."""
        n_frames = 120
        duration = _duration(n_frames)
        t_leave, t_switch = 0.5 * duration, 0.7 * duration
        base = _queue_session(n_frames, (Leave(t_leave, client=1),))
        roamed = _queue_session(
            n_frames,
            (Leave(t_leave, client=1),
             ProfileSwitch(t_switch, client=0, profile="4g")),
        )
        without = simulate_session(base, n_frames=n_frames)
        with_roam = simulate_session(roamed, n_frames=n_frames)
        a = without.client_window(0, 0.0, t_switch)
        b = with_roam.client_window(0, 0.0, t_switch)
        # Identical link history before the switch: identical frames.
        assert a.frames == b.frames
        assert a.mean_fps == b.mean_fps
        # The roam only changes behaviour after the switch instant.
        after_a = without.client_window(0, t_switch, duration)
        after_b = with_roam.client_window(0, t_switch, duration)
        assert after_a.mean_fps != after_b.mean_fps

    def test_shared_starter_keeps_its_downlink_share_before_the_switch(self):
        n_frames = 60
        t = 0.5 * _duration(n_frames)
        session = _queue_session(
            n_frames, (ProfileSwitch(t, client=0, profile="4g"),)
        )
        run = session.timeline(n_frames=n_frames).client(0).run
        network = run.platform.network
        assert isinstance(network, SwitchedProfile)
        allocated = network.segments[0][1]
        from repro.network.profile import AllocatedProfile

        assert isinstance(allocated, AllocatedProfile)
        # Pre-switch the client holds its scheduled slice of the shared
        # link (2 clients at 0.9 efficiency -> ~0.556), not full Wi-Fi.
        before = network.sampler(0).conditions_at(t / 2)
        assert before.throughput_mbps == pytest.approx(
            200.0 / (2 * 0.9)
        )
        # Post-switch the private 4G link is sampled at full capacity.
        assert network.sampler(0).conditions_at(t + 1.0) == LTE_4G

    def test_profile_switch_composes_a_switched_profile(self):
        n_frames = 60
        t = 0.5 * _duration(n_frames)
        session = _queue_session(
            n_frames, (ProfileSwitch(t, client=1, profile="4g"),)
        )
        timeline = session.timeline(n_frames=n_frames)
        run = timeline.client(1).run
        network = run.platform.network
        assert isinstance(network, SwitchedProfile)
        assert network.segments[1][0] == pytest.approx(t)
        # A switched client is on a private link: full capacity, no
        # session downlink schedule.
        assert run.shared_downlink is False
        assert run.downlink_allocation is None
        # The unswitched incumbent keeps the shared downlink.
        assert timeline.client(0).run.shared_downlink is True
        assert timeline.client(0).run.downlink_allocation is not None

    def test_timeline_is_deterministic(self):
        n_frames = 60
        duration = _duration(n_frames)
        events = (Join(0.2 * duration, "Doom3-L"), Leave(0.5 * duration, client=1))
        a = _queue_session(n_frames, events).timeline(n_frames=n_frames)
        b = _queue_session(n_frames, events).timeline(n_frames=n_frames)
        assert a.specs == b.specs
        assert a.epochs == b.epochs

    def test_ties_at_one_instant_apply_leave_first(self):
        n_frames = 60
        t = 0.4 * _duration(n_frames)
        # However the two are declared, the leave (rank 0) applies before
        # the join (rank 2), so the joiner takes the freed slot.
        session = _queue_session(
            n_frames, (Join(t, "Doom3-L"), Leave(t, client=0))
        )
        timeline = session.timeline(n_frames=n_frames)
        assert timeline.client(2).start_ms == pytest.approx(t)


class TestSameTimestampOrdering:
    """Regression: equal-t events follow the documented total order, not
    implicit declaration order (Leave/Fail rank 0 < switch 1 < Join/Up 2)."""

    def test_declaration_order_of_tied_events_is_irrelevant(self):
        n_frames = 60
        t = 0.4 * _duration(n_frames)
        one = _queue_session(
            n_frames, (Join(t, "Doom3-L"), Leave(t, client=0))
        )
        other = _queue_session(
            n_frames, (Leave(t, client=0), Join(t, "Doom3-L"))
        )
        a = one.timeline(n_frames=n_frames)
        b = other.timeline(n_frames=n_frames)
        assert a.specs == b.specs
        assert [spec_key(s) for s in a.specs] == [spec_key(s) for s in b.specs]
        assert a.epochs == b.epochs

    def test_ordered_events_sorts_by_rank_within_an_instant(self):
        t = 500.0
        join = Join(t, "Doom3-L")
        leave = Leave(t, client=0)
        switch = ProfileSwitch(t, client=1, profile="4g")
        session = Session(
            clients=("GRID", "Doom3-L"), events=(join, switch, leave)
        )
        assert session.ordered_events() == (leave, switch, join)

    def test_tied_joins_keep_declaration_order(self):
        """Within one rank, declaration order still assigns indices."""
        n_frames = 60
        t = 0.4 * _duration(n_frames)
        session = _queue_session(
            n_frames,
            (Join(t, "GRID"), Join(t, "Doom3-L"), Leave(t, client=0),
             Leave(t, client=1)),
        )
        timeline = session.timeline(n_frames=n_frames)
        assert timeline.client(2).spec.app == "GRID"
        assert timeline.client(3).spec.app == "Doom3-L"

    def test_join_and_leave_of_the_same_client_at_one_instant_rejected(self):
        """The leave orders first, so it names a not-yet-existing client."""
        t = 500.0
        with pytest.raises(ConfigurationError):
            Session(
                clients=("GRID",),
                events=(Join(t, "Doom3-L"), Leave(t, client=1)),
            )


class TestEventsFromMotion:
    def _trace(self, n_frames=200, seed=0):
        from repro import constants as c
        from repro.motion.traces import generate_trace

        return generate_trace(n_frames, c.FRAME_BUDGET_MS, 1920, 2160, seed=seed)

    def test_emits_paired_switches_for_sustained_bursts(self):
        trace = self._trace(400, seed=0)
        events = events_from_motion(
            trace, degraded="4g", recovered="wifi", client=1
        )
        assert events, "seed 0 contains sustained high-velocity windows"
        assert len(events) % 2 == 0
        assert all(isinstance(e, ProfileSwitch) for e in events)
        assert all(e.client == 1 for e in events)
        for opening, closing in zip(events[::2], events[1::2]):
            assert opening.t_ms < closing.t_ms
            assert opening.profile == ConstantProfile(LTE_4G)
            assert closing.profile == ConstantProfile(WIFI)

    def test_deterministic_for_a_seed(self):
        a = events_from_motion(self._trace(), degraded="4g", recovered="wifi")
        b = events_from_motion(self._trace(), degraded="4g", recovered="wifi")
        assert a == b

    def test_thresholds_gate_event_generation(self):
        trace = self._trace(200, seed=0)
        none = events_from_motion(
            trace, degraded="4g", recovered="wifi", threshold=1.0
        )
        assert none == ()
        strict = events_from_motion(
            trace, degraded="4g", recovered="wifi", min_dwell_ms=1e6
        )
        assert strict == ()

    def test_events_plug_into_a_session(self):
        n_frames = 200
        trace = self._trace(n_frames, seed=0)
        events = events_from_motion(trace, degraded="4g", recovered="wifi")
        session = Session(clients=("GRID", "Doom3-L"), events=events)
        timeline = session.timeline(n_frames=n_frames)
        assert len(timeline.epochs) == len(events) + 1

    def test_parameter_validation(self):
        trace = self._trace(30)
        with pytest.raises(ConfigurationError):
            events_from_motion(trace, degraded="4g", recovered="wifi",
                               threshold=0.0)
        with pytest.raises(ConfigurationError):
            events_from_motion(trace, degraded="4g", recovered="wifi",
                               min_dwell_ms=0.0)
        with pytest.raises(ConfigurationError):
            events_from_motion(trace, degraded="4g", recovered="wifi",
                               client=-1)


class TestLateStartSampling:
    def test_late_starter_observes_the_session_clock(self):
        """A client promoted mid-drop sees the drop, not fresh conditions."""
        n_frames = 90
        duration = _duration(n_frames)
        trace = _drop_trace(n_frames)
        session = _queue_session(
            n_frames,
            # Promotion lands inside the drop window [0.3, 0.7).
            (Join(0.2 * duration, "Doom3-L"), Leave(0.4 * duration, client=1)),
        )
        run = session.timeline(n_frames=n_frames).client(2).run
        platform = run.effective_platform()
        sampler = platform.network.sampler(0)
        # Local t=0 is session t=0.4*duration: inside the 30 Mbps drop.
        drop_share = sampler.conditions_at(0.0).throughput_mbps
        assert drop_share < 30.0  # 30 Mbps x the client's downlink share
        # After the drop ends (session 0.7*duration = local 0.3*duration)
        # the link recovers.
        recovered = sampler.conditions_at(0.31 * duration).throughput_mbps
        assert recovered > drop_share
        assert trace.throughput_mbps[1] == 30.0

    def test_offset_profile_validates_and_shifts(self):
        profile = OffsetProfile(_drop_trace(90), 500.0)
        base = _drop_trace(90)
        assert profile.sampler(0).conditions_at(100.0) == base.sampler(
            0
        ).conditions_at(600.0)
        with pytest.raises(NetworkError):
            OffsetProfile(base, -1.0)


class TestSessionResult:
    def test_epoch_stats_cover_every_epoch(self):
        n_frames = 90
        duration = _duration(n_frames)
        session = _queue_session(
            n_frames,
            (Join(0.2 * duration, "Doom3-L"), Leave(0.4 * duration, client=1)),
        )
        result = simulate_session(session, n_frames=n_frames)
        stats = result.epoch_stats(0)  # the incumbent spans every epoch
        assert len(stats) == len(result.timeline.epochs)
        assert all(s is not None for s in stats)
        assert sum(s.frames for s in stats) <= n_frames
        # The joiner has no frames before its promotion epoch.
        joiner_stats = result.epoch_stats(2)
        assert joiner_stats[0] is None and joiner_stats[1] is None
        assert joiner_stats[2] is not None and joiner_stats[2].frames > 0

    def test_engine_caches_session_specs(self):
        n_frames = 60
        session = _queue_session(n_frames, (Leave(300.0, client=1),))
        engine = BatchEngine()
        first = simulate_session(session, n_frames=n_frames, engine=engine)
        second = simulate_session(session, n_frames=n_frames, engine=engine)
        assert engine.stats.executed == 2
        assert engine.stats.cache_hits == 2
        assert first.mean_fps == second.mean_fps
