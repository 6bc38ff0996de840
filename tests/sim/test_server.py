"""Tests for the rendering-server admission/scheduling subsystem."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.network.conditions import LTE_4G, WIFI
from repro.network.profile import AllocatedProfile, ConstantProfile, TraceProfile
from repro.sim.runner import BatchEngine, RunSpec, run_batch, spec_key
from repro.sim.session import ClientSpec, Session, simulate_session
from repro.sim.server import (
    ClientDemand,
    DeadlinePolicy,
    FairSharePolicy,
    POLICY_NAMES,
    RenderServer,
    ShareSchedule,
    WeightedPolicy,
    policy_by_name,
)
from repro.sim.systems import PlatformConfig
from repro import constants


def _drop_trace(n_frames):
    frame_ms = constants.FRAME_BUDGET_MS
    return TraceProfile(
        base=WIFI,
        times_ms=(0.0, 0.3 * n_frames * frame_ms, 0.7 * n_frames * frame_ms),
        throughput_mbps=(200.0, 30.0, 200.0),
        label="test-drop",
    )


def _session(policy, n_frames=120, server=None):
    return Session(
        clients=(ClientSpec("GRID"), ClientSpec("Doom3-L")),
        platform=PlatformConfig(network=_drop_trace(n_frames)),
        policy=policy,
        server=server,
    )


class TestPolicyRegistry:
    def test_known_policies(self):
        assert POLICY_NAMES == ("fair-share", "weighted", "deadline")

    def test_by_name(self):
        assert isinstance(policy_by_name("deadline"), DeadlinePolicy)
        assert isinstance(policy_by_name("Fair-Share"), FairSharePolicy)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            policy_by_name("lottery")
        with pytest.raises(ConfigurationError):
            Session(clients=("GRID",) * 2, policy="lottery")
        with pytest.raises(ConfigurationError):
            RunSpec(system="qvr", app="GRID", policy="lottery")


class TestShareSchedule:
    def test_step_lookup(self):
        schedule = ShareSchedule(((0.0, 0.5), (100.0, 0.9)))
        assert schedule.share_at(0.0) == 0.5
        assert schedule.share_at(99.9) == 0.5
        assert schedule.share_at(100.0) == 0.9
        assert schedule.share_at(1e9) == 0.9

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ShareSchedule(())

    def test_malformed_schedules_rejected(self):
        with pytest.raises(ConfigurationError):  # must start at 0
            ShareSchedule(((10.0, 0.5),))
        with pytest.raises(ConfigurationError):  # starts must increase
            ShareSchedule(((0.0, 1.0), (500.0, 0.5), (250.0, 0.25)))
        with pytest.raises(ConfigurationError):  # shares must be > 0
            ShareSchedule(((0.0, 0.0),))

    def test_runspec_and_platform_validate_schedules_at_construction(self):
        bad = ((0.0, 1.0), (500.0, 0.5), (250.0, 0.25))
        with pytest.raises(ConfigurationError):
            RunSpec(system="qvr", app="GRID", policy="deadline",
                    server_allocation=bad)
        with pytest.raises(ConfigurationError):
            PlatformConfig(server_schedule=((0.0, -1.0),))


class TestFairShareBitCompatibility:
    """Fair share is the default: an explicit fair-share session plans
    and runs as the default one, and an asymmetric uplink reaches the key."""

    def test_uplink_neutral_value_keeps_conditions_keys(self):
        base = spec_key(RunSpec(system="qvr", app="GRID"))
        asymmetric = spec_key(
            RunSpec(
                system="qvr",
                app="GRID",
                platform=PlatformConfig(network=WIFI.with_uplink(20.0)),
            )
        )
        assert asymmetric != base

    def test_explicit_fair_share_matches_default(self):
        session = _session("fair-share")
        default = Session(
            clients=(ClientSpec("GRID"), ClientSpec("Doom3-L")),
            platform=PlatformConfig(network=_drop_trace(120)),
        )
        assert (
            session.timeline(n_frames=60).specs == default.timeline(n_frames=60).specs
        )

    def test_fair_share_results_bit_identical(self):
        explicit = simulate_session(_session("fair-share"), n_frames=50)
        legacy = simulate_session(
            Session(
                clients=(ClientSpec("GRID"), ClientSpec("Doom3-L")),
                platform=PlatformConfig(network=_drop_trace(120)),
            ),
            n_frames=50,
        )
        assert pickle.dumps(explicit.per_client) == pickle.dumps(legacy.per_client)


class TestCacheKeySeparation:
    def test_policies_separate_cache_keys(self):
        keys = {
            policy: tuple(
                spec_key(s) for s in _session(policy).timeline(n_frames=50).specs
            )
            for policy in POLICY_NAMES
        }
        assert keys["fair-share"] != keys["weighted"]
        assert keys["fair-share"] != keys["deadline"]
        assert keys["weighted"] != keys["deadline"]

    def test_policy_tag_alone_separates_keys(self):
        base = RunSpec(system="qvr", app="GRID")
        tagged = RunSpec(system="qvr", app="GRID", policy="deadline")
        assert spec_key(base) != spec_key(tagged)

    def test_downlink_allocation_requires_server_allocation(self):
        with pytest.raises(ConfigurationError):
            RunSpec(
                system="qvr",
                app="GRID",
                downlink_allocation=((0.0, 0.5),),
            )

    def test_shared_downlink_spec_needs_both_schedules(self):
        """server_allocation alone on a shared link would silently skip
        the downlink division; only private links may omit the schedule."""
        with pytest.raises(ConfigurationError):
            RunSpec(
                system="qvr",
                app="GRID",
                shared_clients=4,
                server_allocation=((0.0, 0.25),),
            )
        private = RunSpec(
            system="qvr",
            app="GRID",
            shared_clients=4,
            shared_downlink=False,
            server_allocation=((0.0, 0.25),),
        )
        assert private.effective_platform().network == PlatformConfig().network


class TestAdmission:
    """Admission verdicts of a one-server session's first epoch."""

    def _decisions(self, server, clients=("GRID",) * 3):
        session = Session(clients=clients, server=server)
        return session.timeline(n_frames=24).epochs[0].decisions

    def test_within_capacity_all_admitted(self):
        decisions = self._decisions(RenderServer(capacity_clients=4.0))
        assert [d.action for d in decisions] == ["admit"] * 3
        assert all(d.service_level == 1.0 for d in decisions)

    def test_default_capacity_follows_gpu_count(self):
        assert RenderServer().capacity == 8.0

    def test_degrade_shrinks_everyone_proportionally(self):
        decisions = self._decisions(
            RenderServer(capacity_clients=2.0, overflow="degrade"), ("GRID",) * 4
        )
        assert [d.action for d in decisions] == ["degrade"] * 4
        assert all(d.service_level == pytest.approx(0.5) for d in decisions)

    def test_sub_client_capacity_degrades_a_lone_client(self):
        """capacity < 1 client-equivalent still serves, at reduced service."""
        (decision,) = self._decisions(
            RenderServer(capacity_clients=0.5, overflow="degrade"), ("GRID",)
        )
        assert decision.action == "degrade"
        assert decision.service_level == pytest.approx(0.5)
        assert decision.serviced

    def test_sub_client_capacity_with_reject_turns_everyone_away(self):
        (decision,) = self._decisions(
            RenderServer(capacity_clients=0.5, overflow="reject"), ("GRID",)
        )
        assert decision.action == "reject"
        assert not decision.serviced

    def test_reject_services_a_prefix(self):
        decisions = self._decisions(
            RenderServer(capacity_clients=2.0, overflow="reject")
        )
        assert [d.action for d in decisions] == ["admit", "admit", "reject"]

    def test_queue_marks_the_excess(self):
        decisions = self._decisions(
            RenderServer(capacity_clients=1.0, overflow="queue"), ("GRID",) * 2
        )
        assert [d.action for d in decisions] == ["admit", "queue"]

    def test_rejected_clients_produce_no_specs_but_keep_verdicts(self):
        session = Session(
            clients=("GRID",) * 3,
            policy="weighted",
            server=RenderServer(capacity_clients=2.0, overflow="reject"),
        )
        timeline = session.timeline(n_frames=40)
        decisions = timeline.epochs[0].decisions
        assert [d.action for d in decisions] == ["admit", "admit", "reject"]
        assert len(timeline.specs) == 2
        assert timeline.serviced_indices == (0, 1)
        result = simulate_session(session, n_frames=40)
        assert len(result.per_client) == 2
        assert result.timeline.epochs[0].decisions == decisions
        # Only the serviced roster contends for the link/jitter model.
        assert all(spec.shared_clients == 2 for spec in timeline.specs)

    def test_client_weights_consume_capacity(self):
        decisions = self._decisions(
            RenderServer(capacity_clients=2.0, overflow="reject"),
            (ClientSpec("GRID", weight=1.5), ClientSpec("Doom3-L", weight=1.0)),
        )
        assert [d.action for d in decisions] == ["admit", "reject"]

    def test_bad_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            RenderServer(capacity_clients=0.0)
        with pytest.raises(ConfigurationError):
            RenderServer(overflow="drop-table")
        with pytest.raises(ConfigurationError):
            ClientSpec("GRID", weight=0.0)


class TestScheduling:
    def test_fair_share_allocation_matches_legacy_uniform_share(self):
        server = RenderServer()
        demands = tuple(
            ClientDemand.estimate("GRID", WIFI, seed=i) for i in range(2)
        )
        allocations = server.allocate(
            demands, "fair-share", horizon_ms=2000.0, sharing_efficiency=0.9
        )
        expected = 1.0 / (2 * 0.9)
        for allocation in allocations:
            assert allocation.server.segments == ((0.0, pytest.approx(expected)),)
            assert allocation.downlink.segments == ((0.0, pytest.approx(expected)),)

    def test_weighted_favours_the_better_provisioned_client(self):
        server = RenderServer()
        demands = (
            ClientDemand.estimate("GRID", WIFI),  # 200 Mbps
            ClientDemand.estimate("GRID", LTE_4G, seed=1),  # 100 Mbps
        )
        wifi, lte = server.allocate(demands, "weighted", horizon_ms=1000.0)
        assert wifi.downlink.share_at(0.0) > lte.downlink.share_at(0.0)

    def test_deadline_boosts_the_pressured_client_inside_the_drop(self):
        n_frames = 120
        timeline = _session("deadline", n_frames=n_frames).timeline(n_frames=n_frames)
        grid_spec = timeline.specs[0]
        trace = _drop_trace(n_frames)
        in_drop = (trace.times_ms[1] + trace.times_ms[2]) / 2
        schedule = ShareSchedule(grid_spec.server_allocation)
        fair = 1.0 / (2 * 0.9)
        assert schedule.share_at(in_drop) > fair
        assert schedule.share_at(0.0) >= fair  # heavy client, mild pre-boost
        light = ShareSchedule(timeline.specs[1].server_allocation)
        assert light.share_at(in_drop) < fair

    def test_allocation_service_level_scales_server_not_downlink(self):
        server = RenderServer()
        demands = (ClientDemand.estimate("GRID", WIFI),)
        (allocation,) = server.allocate(
            demands,
            "fair-share",
            horizon_ms=1000.0,
            sharing_efficiency=1.0,
            service_levels=(0.5,),
        )
        assert allocation.server.share_at(0.0) == pytest.approx(0.5)
        assert allocation.downlink.share_at(0.0) == pytest.approx(1.0)


class TestDeadlinePrediction:
    """The tentpole's testable prediction (issue acceptance criterion)."""

    def test_deadline_improves_drop_window_p99_fps_over_fair_share(self):
        from repro.analysis.experiments import admission_scheduling

        engine = BatchEngine()
        rows = admission_scheduling(
            n_frames=160, seed=0, policies=("fair-share", "deadline"), engine=engine
        )
        by = {(r.policy, r.app): r for r in rows}
        apps = ("GRID", "Doom3-L")
        fair_tail = min(by[("fair-share", app)].drop_p99_fps for app in apps)
        deadline_tail = min(by[("deadline", app)].drop_p99_fps for app in apps)
        # The session's worst per-client tail improves materially...
        assert deadline_tail > fair_tail * 1.2
        # ...and the pressured (heavy) client is the one being lifted.
        assert (
            by[("deadline", "GRID")].drop_p99_fps
            > by[("fair-share", "GRID")].drop_p99_fps
        )
        # ...while the session's mean FPS stays within noise.
        fair_mean = sum(by[("fair-share", app)].mean_fps for app in apps) / 2
        deadline_mean = sum(by[("deadline", app)].mean_fps for app in apps) / 2
        assert deadline_mean == pytest.approx(fair_mean, rel=0.10)


class TestDeterminism:
    def test_policy_runs_bit_identical_at_any_job_count(self):
        specs = _session("deadline").timeline(n_frames=40).specs
        serial = run_batch(specs, jobs=1)
        parallel = run_batch(specs, jobs=2)
        for spec in specs:
            assert pickle.dumps(serial[spec]) == pickle.dumps(parallel[spec])

    def test_planning_is_deterministic_per_seed(self):
        first = _session("deadline").timeline(n_frames=60, seed=9)
        second = _session("deadline").timeline(n_frames=60, seed=9)
        assert first == second
        shifted = _session("deadline").timeline(n_frames=60, seed=10)
        assert shifted.specs != first.specs

    def test_markov_profile_allocation_is_seed_stable(self):
        from repro.network.profile import PROFILES

        session = Session(
            clients=(ClientSpec("GRID"), ClientSpec("Doom3-L")),
            platform=PlatformConfig(network=PROFILES["wifi-markov"]),
            policy="weighted",
        )
        assert session.timeline(n_frames=40, seed=2) == session.timeline(
            n_frames=40, seed=2
        )


class TestAllocatedProfile:
    def test_shares_scale_the_base_profile(self):
        profile = AllocatedProfile(
            base=ConstantProfile(WIFI),
            segments=((0.0, 0.5), (500.0, 1.0)),
            n_clients=2,
        )
        sampler = profile.sampler(0)
        assert sampler.conditions_at(0.0).throughput_mbps == pytest.approx(100.0)
        assert sampler.conditions_at(600.0).throughput_mbps == pytest.approx(200.0)

    def test_uplink_scales_with_the_share(self):
        profile = AllocatedProfile(
            base=ConstantProfile(WIFI.with_uplink(40.0)),
            segments=((0.0, 0.5),),
            n_clients=2,
        )
        assert profile.sampler(0).conditions_at(0.0).uplink_mbps == pytest.approx(
            20.0
        )
        # Unmodelled uplinks stay unmodelled.
        unmodelled = AllocatedProfile(
            base=ConstantProfile(WIFI), segments=((0.0, 0.5),), n_clients=2
        )
        assert unmodelled.sampler(0).conditions_at(0.0).uplink_mbps is None


class TestSweepPolicyAxis:
    """A sweep has no policy axis: it expands solo fair-share runs."""

    def test_default_axis_is_fair_share(self):
        from repro.sim.runner import Sweep

        sweep = Sweep(systems=("qvr",), apps=("GRID",), n_frames=40)
        assert all(s.policy == "fair-share" for s in sweep.specs())


class TestWeightedPolicyUnits:
    def test_weight_tracks_bandwidth(self):
        policy = WeightedPolicy()
        demand = ClientDemand.estimate("GRID", WIFI)
        assert policy.weight_at(demand, WIFI, 0.0) == pytest.approx(200.0)
        assert policy.weight_at(demand, LTE_4G, 0.0) == pytest.approx(100.0)
