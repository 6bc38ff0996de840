"""Integration tests for the seven system designs."""

import numpy as np
import pytest

from repro import constants
from repro.errors import ConfigurationError
from repro.network.conditions import EARLY_5G, LTE_4G
from repro.sim.runner import RunSpec, run, run_comparison, speedup_over
from repro.sim.systems import PlatformConfig, SYSTEM_NAMES, make_system
from repro.workloads.apps import get_app

N_FRAMES = 90
WARMUP = 25


@pytest.fixture(scope="module")
def doom3h_results():
    """One shared comparison run for the integration assertions."""
    return run_comparison(
        "Doom3-H",
        systems=("local", "remote", "static", "ffr", "dfr", "sw-qvr", "qvr"),
        n_frames=N_FRAMES,
    )


class TestFactory:
    def test_all_names_constructible(self):
        app = get_app("Doom3-L")
        for name in SYSTEM_NAMES:
            system = make_system(name, app)
            assert system.name == name

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_system("hologram", get_app("Doom3-L"))

    def test_runspec_validation(self):
        with pytest.raises(ConfigurationError):
            RunSpec(system="hologram", app="GRID")
        with pytest.raises(ConfigurationError):
            RunSpec(system="qvr", app="GRID", n_frames=0)

    def test_run_by_spec(self):
        result = run(RunSpec(system="local", app="Doom3-L", n_frames=20, warmup_frames=5))
        assert result.system == "local"
        assert len(result.records) == 20


class TestSchedules:
    def test_records_complete_and_ordered(self, doom3h_results):
        for name, result in doom3h_results.items():
            assert len(result.records) == N_FRAMES, name
            displays = [r.display_ms for r in result.records]
            assert displays == sorted(displays), name

    def test_determinism(self):
        a = make_system("qvr", get_app("UT3"), seed=3).run(n_frames=40)
        b = make_system("qvr", get_app("UT3"), seed=3).run(n_frames=40)
        assert [r.display_ms for r in a.records] == [r.display_ms for r in b.records]
        assert [r.e1_deg for r in a.records] == [r.e1_deg for r in b.records]

    def test_seed_changes_outcome(self):
        a = make_system("qvr", get_app("UT3"), seed=1).run(n_frames=40)
        b = make_system("qvr", get_app("UT3"), seed=2).run(n_frames=40)
        assert [r.display_ms for r in a.records] != [r.display_ms for r in b.records]


class TestLocalOnly:
    def test_no_network_traffic(self, doom3h_results):
        result = doom3h_results["local"]
        assert all(r.transmitted_bytes == 0 for r in result.records)
        assert all(r.net_busy_ms == 0 for r in result.records)

    def test_gpu_bound_fps(self, doom3h_results):
        result = doom3h_results["local"]
        mean_gpu = np.mean([r.gpu_busy_ms for r in result.records[WARMUP:]])
        assert result.measured_fps == pytest.approx(1000.0 / mean_gpu, rel=0.15)

    def test_latency_dominated_by_rendering(self, doom3h_results):
        result = doom3h_results["local"]
        record = result.records[-1]
        assert record.local_ms > 0.5 * record.e2e_latency_ms


class TestRemoteOnly:
    def test_transmission_dominates(self, doom3h_results):
        """Fig. 3b: transmission is ~63 % of the remote-only latency."""
        result = doom3h_results["remote"]
        steady = result.records[WARMUP:]
        share = np.mean([r.net_busy_ms / r.e2e_latency_ms for r in steady])
        assert 0.40 < share < 0.80

    def test_misses_mtp(self, doom3h_results):
        """Remote-only cannot satisfy the 25 ms MTP requirement."""
        assert not doom3h_results["remote"].meets_mtp

    def test_full_frames_transmitted(self, doom3h_results):
        result = doom3h_results["remote"]
        assert result.mean_transmitted_bytes > 400e3


class TestStatic:
    def test_mispredictions_occur(self, doom3h_results):
        result = doom3h_results["static"]
        rate = np.mean([1.0 if r.mispredicted else 0.0 for r in result.records])
        assert 0.02 < rate < 0.6

    def test_transmits_more_than_remote_only(self, doom3h_results):
        """Static adds depth maps on top of the full background."""
        assert (
            doom3h_results["static"].mean_transmitted_bytes
            > doom3h_results["remote"].mean_transmitted_bytes
        )

    def test_fps_network_cadence_bound(self, doom3h_results):
        result = doom3h_results["static"]
        assert result.measured_fps < 60.0


class TestCollaborativeFoveated:
    def test_ffr_keeps_classic_fovea(self, doom3h_results):
        result = doom3h_results["ffr"]
        assert all(
            r.e1_deg == pytest.approx(constants.CLASSIC_FOVEA_ECCENTRICITY_DEG)
            for r in result.records
        )

    def test_qvr_adapts_eccentricity(self, doom3h_results):
        result = doom3h_results["qvr"]
        assert result.mean_e1_deg > constants.CLASSIC_FOVEA_ECCENTRICITY_DEG + 3

    def test_qvr_reaches_balance(self, doom3h_results):
        """Fig. 14a: the steady-state latency ratio settles near 1."""
        ratio = doom3h_results["qvr"].mean_latency_ratio
        assert 0.6 < ratio < 1.6

    def test_qvr_starts_unbalanced(self, doom3h_results):
        """Initialised at e1 = 5: the first frames are network-dominated."""
        ratios = doom3h_results["qvr"].latency_ratios()
        assert ratios[0] > 2.0

    def test_eccentricity_in_legal_range(self, doom3h_results):
        for name in ("dfr", "sw-qvr", "qvr"):
            for r in doom3h_results[name].records:
                assert (
                    constants.MIN_ECCENTRICITY_DEG - 1e-9
                    <= r.e1_deg
                    <= constants.MAX_ECCENTRICITY_DEG + 1e-9
                )

    def test_uca_offloads_gpu(self, doom3h_results):
        """Q-VR's GPU busy time excludes composition/ATW; DFR's includes it."""
        qvr_gpu = doom3h_results["qvr"].records[-1].gpu_busy_ms
        dfr_gpu = doom3h_results["dfr"].records[-1].gpu_busy_ms
        assert qvr_gpu < dfr_gpu
        assert doom3h_results["qvr"].records[-1].uca_busy_ms > 0
        assert doom3h_results["dfr"].records[-1].uca_busy_ms == 0

    def test_qvr_transmits_less_than_remote(self, doom3h_results):
        assert (
            doom3h_results["qvr"].mean_transmitted_bytes
            < 0.4 * doom3h_results["remote"].mean_transmitted_bytes
        )

    def test_resolution_reduction_reported(self, doom3h_results):
        assert 0.1 < doom3h_results["qvr"].mean_resolution_reduction < 0.95


class TestPaperOrdering:
    """The headline ordering of Fig. 12 must hold on every run."""

    def test_design_ordering(self, doom3h_results):
        static = speedup_over(doom3h_results, "static")
        ffr = speedup_over(doom3h_results, "ffr")
        qvr = speedup_over(doom3h_results, "qvr")
        assert static < ffr < qvr

    def test_dfr_at_least_ffr(self, doom3h_results):
        assert speedup_over(doom3h_results, "dfr") >= speedup_over(
            doom3h_results, "ffr"
        ) * 0.98

    def test_qvr_meets_mtp(self, doom3h_results):
        assert doom3h_results["qvr"].meets_mtp

    def test_qvr_fps_above_target(self, doom3h_results):
        assert doom3h_results["qvr"].measured_fps > constants.TARGET_FPS

    def test_qvr_fps_beats_software(self, doom3h_results):
        assert (
            doom3h_results["qvr"].measured_fps
            > 1.3 * doom3h_results["sw-qvr"].measured_fps
        )

    def test_qvr_fps_beats_static(self, doom3h_results):
        assert (
            doom3h_results["qvr"].measured_fps
            > 2.0 * doom3h_results["static"].measured_fps
        )


class TestNetworkSensitivity:
    def test_slower_network_grows_fovea(self):
        app = get_app("HL2-H")
        lte = make_system("qvr", app, PlatformConfig(network=LTE_4G)).run(n_frames=N_FRAMES)
        fiveg = make_system("qvr", app, PlatformConfig(network=EARLY_5G)).run(n_frames=N_FRAMES)
        assert lte.mean_e1_deg > fiveg.mean_e1_deg

    def test_slower_gpu_shrinks_fovea(self):
        app = get_app("HL2-H")
        fast = make_system("qvr", app, PlatformConfig().with_gpu_frequency(500)).run(
            n_frames=N_FRAMES
        )
        slow = make_system("qvr", app, PlatformConfig().with_gpu_frequency(300)).run(
            n_frames=N_FRAMES
        )
        assert slow.mean_e1_deg < fast.mean_e1_deg

    def test_lighter_app_bigger_fovea(self):
        light = make_system("qvr", get_app("Doom3-L")).run(n_frames=N_FRAMES)
        heavy = make_system("qvr", get_app("GRID")).run(n_frames=N_FRAMES)
        assert light.mean_e1_deg > heavy.mean_e1_deg

