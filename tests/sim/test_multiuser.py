"""Tests for shared-infrastructure sessions: several clients, one server and link."""

import pytest

from repro.errors import ConfigurationError
from repro.network.conditions import LTE_4G, WIFI
from repro.network.profile import ConstantProfile, PiecewiseProfile
from repro.sim.session import ClientSpec, Session, simulate_session
from repro.sim.systems import PlatformConfig


def _session(n_clients, app="HL2-L"):
    return Session(clients=(app,) * n_clients, platform=PlatformConfig())


def _specs(session, **kwargs):
    return session.timeline(**kwargs).specs


class TestScenario:
    def test_client_count(self):
        assert _session(3).n_clients == 3

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Session(clients=(), platform=PlatformConfig())

    def test_invalid_efficiency(self):
        with pytest.raises(ConfigurationError):
            Session(clients=("GRID",), platform=PlatformConfig(),
                    sharing_efficiency=0.0)

    def test_bare_strings_promote_to_clients(self):
        session = Session(clients=("GRID", "Doom3-L"))
        assert session.clients == (ClientSpec("GRID"), ClientSpec("Doom3-L"))

    def test_heterogeneous_factory(self):
        session = Session(
            clients=(ClientSpec("GRID", profile="wifi-drop"), "Doom3-L")
        )
        assert session.n_clients == 2
        assert [client.app for client in session.clients] == ["GRID", "Doom3-L"]


class TestHeterogeneousClients:
    def test_per_client_platform_and_profile_reach_specs(self):
        throttled = PlatformConfig(network=LTE_4G).with_gpu_frequency(300.0)
        drop = PiecewiseProfile.bandwidth_drop(WIFI, 400.0, 600.0, 0.2)
        session = Session(
            clients=(
                ClientSpec("Doom3-H"),
                ClientSpec("GRID", platform=throttled),
                ClientSpec("HL2-L", profile=drop),
            )
        )
        specs = _specs(session, n_frames=50, seed=0)
        assert specs[0].platform == PlatformConfig()
        assert specs[1].platform == throttled
        assert specs[2].platform.network == drop
        assert all(spec.shared_clients == 3 for spec in specs)

    def test_profile_name_coerces(self):
        session = Session(clients=(ClientSpec("GRID", profile="4g"),))
        spec = _specs(session, n_frames=50)[0]
        assert spec.platform.network == ConstantProfile(LTE_4G)

    def test_profile_overrides_client_platform_network(self):
        throttled = PlatformConfig(network=LTE_4G)
        client = ClientSpec("GRID", platform=throttled, profile="5g")
        resolved = client.resolved_platform(PlatformConfig())
        assert resolved.network.name == "Early 5G"
        assert resolved.gpu == throttled.gpu

    def test_per_client_system_override(self):
        session = Session(
            clients=(ClientSpec("GRID", system="local"), ClientSpec("GRID"))
        )
        specs = _specs(session, system="qvr", n_frames=50)
        assert [spec.system for spec in specs] == ["local", "qvr"]

    def test_heterogeneous_runs_through_batch_engine_unchanged(self):
        from repro.sim.runner import BatchEngine

        session = Session(
            clients=(
                ClientSpec("Doom3-L", profile="wifi"),
                ClientSpec("GRID", platform=PlatformConfig().with_gpu_frequency(400.0)),
            )
        )
        specs = _specs(session, n_frames=40, seed=1)
        batch = BatchEngine().run_specs(specs)
        assert len(batch) == 2

    def test_private_link_keeps_full_downlink(self):
        """A client on its own link shares the server, not the downlink."""
        session = Session(
            clients=(ClientSpec("Doom3-H"), ClientSpec("GRID", profile="4g"))
        )
        default_spec, private_spec = _specs(session, n_frames=50)
        assert default_spec.shared_downlink
        assert not private_spec.shared_downlink
        private = private_spec.effective_platform()
        # Full 4G capacity: not divided by the session's client count.
        assert private.network.sampler(0).conditions_at(0.0).throughput_mbps == (
            LTE_4G.throughput_mbps
        )
        # The rendering server is still time-shared.
        assert private.server_schedule == ((0.0, 1.0 / (2 * 0.9)),)
        # The default-link client still pays the downlink division.
        shared = default_spec.effective_platform()
        assert (
            shared.network.sampler(0).conditions_at(0.0).throughput_mbps
            < WIFI.throughput_mbps
        )

    def test_uniform_scenario_shares_the_downlink(self):
        specs = _specs(Session(clients=("GRID",) * 3), n_frames=50)
        assert all(spec.shared_downlink for spec in specs)

    def test_heterogeneous_platforms_produce_different_outcomes(self):
        fast = ClientSpec("GRID")
        slow = ClientSpec("GRID", platform=PlatformConfig().with_gpu_frequency(300.0))
        result = simulate_session(Session(clients=(fast, slow)), n_frames=60)
        fast_result, slow_result = result.per_client
        assert fast_result.mean_latency_ms != slow_result.mean_latency_ms


class TestSpecSurface:
    def test_scenario_expands_to_one_spec_per_client(self):
        session = Session(clients=("Doom3-L", "GRID"), platform=PlatformConfig())
        specs = _specs(session, n_frames=50, seed=3)
        assert [s.app for s in specs] == ["Doom3-L", "GRID"]
        assert all(s.shared_clients == 2 for s in specs)
        assert specs[0].seed == 3
        assert specs[1].seed == 3 + 97
        # Frozen specs run through the standard batch engine unchanged.
        from repro.sim.runner import BatchEngine

        batch = BatchEngine().run_specs(specs)
        assert len(batch) == 2

    def test_engine_is_shared(self):
        from repro.sim.runner import BatchEngine

        engine = BatchEngine()
        session = _session(2)
        first = simulate_session(session, n_frames=50, engine=engine)
        second = simulate_session(session, n_frames=50, engine=engine)
        assert engine.stats.executed == 2  # memoized on the second call
        assert engine.stats.cache_hits == 2
        assert first.mean_latency_ms == second.mean_latency_ms


class TestSharedInfrastructure:
    def test_single_client_matches_solo_platform(self):
        solo = simulate_session(_session(1), n_frames=50)
        assert solo.per_client[0].meets_target_fps

    def test_contention_grows_fovea(self):
        """More co-located users -> degraded share -> bigger local fovea."""
        one = simulate_session(_session(1), n_frames=60)
        four = simulate_session(_session(4), n_frames=60)
        assert four.mean_e1_deg > one.mean_e1_deg

    def test_contention_costs_latency(self):
        one = simulate_session(_session(1), n_frames=60)
        four = simulate_session(_session(4), n_frames=60)
        assert four.mean_latency_ms > one.mean_latency_ms * 0.95

    def test_mixed_titles(self):
        mixed = Session(clients=("Doom3-L", "GRID"), platform=PlatformConfig())
        result = simulate_session(mixed, n_frames=50)
        assert len(result.per_client) == 2
        # The lighter title still keeps the larger fovea under sharing.
        by_app = {r.app: r for r in result.per_client}
        assert by_app["Doom3-L"].mean_e1_deg > by_app["GRID"].mean_e1_deg

    def test_clients_meeting_fps_counts(self):
        result = simulate_session(_session(2), n_frames=50)
        assert 0 <= result.clients_meeting_fps <= 2
