"""Tests for the population-scale demand generator (repro.sim.demand)."""

import hashlib
import json
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.profile import TraceProfile
from repro.obs import report as obs_report
from repro.obs import trace
from repro.sim import kernels
from repro.sim.demand import (
    ChurnModel,
    ClientTemplate,
    DemandScenario,
    DiurnalArrivals,
    FlashCrowd,
    PoissonArrivals,
    SESSION_SEED_STRIDE,
    run_population,
)
from repro.sim.fleet import RenderFleet
from repro.sim.runner import BatchEngine, ResultCache
from repro.sim.session import Join, Leave, ProfileSwitch
from repro.workloads.apps import APPS

REPO = Path(__file__).resolve().parents[2]


def _payload(**overrides):
    payload = {
        "name": "test-town",
        "horizon_ms": 400_000,
        "arrivals": {"process": "poisson", "rate_per_min": 3.0},
        "party_sizes": {"1": 0.4, "2": 0.4, "3": 0.2},
        "duration_frames": {"min": 8, "max": 12},
        "clients": [
            {"app": "GRID", "share": 2.0},
            {"app": "UT3", "share": 1.0, "weight": 2.0},
        ],
        "profiles": {"default": 3.0, "lte": 1.0},
        "churn": {"late_join": 0.3, "leave": 0.25, "switch": 0.2},
        "fleet": {"servers": {"east": 3, "west": 3}, "placement": "least-loaded"},
        "policies": ["fair-share", "deadline"],
        "slo": {"p99_fps_floor": 45.0},
    }
    payload.update(overrides)
    return payload


def _scenario(**overrides):
    return DemandScenario.from_payload(_payload(**overrides))


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------


class TestArrivals:
    def test_poisson_rate_is_flat(self):
        p = PoissonArrivals(rate_per_min=6.0)
        assert p.rate_at(0.0) == p.rate_at(1e6) == pytest.approx(1e-4)
        assert p.peak_rate() == pytest.approx(1e-4)

    def test_diurnal_peaks_at_peak_ms_and_troughs_opposite(self):
        d = DiurnalArrivals(
            rate_per_min=6.0, period_ms=1000.0, amplitude=0.5, peak_ms=250.0
        )
        assert d.rate_at(250.0) == pytest.approx(d.peak_rate())
        assert d.rate_at(750.0) == pytest.approx(1e-4 * 0.5)
        assert d.peak_rate() == pytest.approx(1e-4 * 1.5)

    def test_diurnal_mean_rate_matches_homogeneous(self):
        d = DiurnalArrivals(rate_per_min=6.0, period_ms=1000.0, amplitude=0.9)
        ts = np.linspace(0.0, 1000.0, 10_001)[:-1]
        assert np.mean([d.rate_at(t) for t in ts]) == pytest.approx(1e-4, rel=1e-3)

    def test_flash_crowd_window_half_open(self):
        crowd = FlashCrowd(start_ms=100.0, duration_ms=50.0, multiplier=4.0)
        assert not crowd.active_at(99.9)
        assert crowd.active_at(100.0)
        assert crowd.active_at(149.9)
        assert not crowd.active_at(150.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_per_min": 0.0},
            {"rate_per_min": -1.0},
            {"rate_per_min": float("nan")},
        ],
    )
    def test_bad_rates_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(**kwargs)

    def test_bad_diurnal_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(rate_per_min=1.0, amplitude=1.0)
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(rate_per_min=1.0, period_ms=0.0)

    def test_bad_flash_crowds_rejected(self):
        with pytest.raises(ConfigurationError):
            FlashCrowd(start_ms=-1.0, duration_ms=10.0, multiplier=2.0)
        with pytest.raises(ConfigurationError):
            FlashCrowd(start_ms=0.0, duration_ms=0.0, multiplier=2.0)
        with pytest.raises(ConfigurationError):
            FlashCrowd(start_ms=0.0, duration_ms=10.0, multiplier=0.0)

    def test_flash_crowd_multiplies_arrivals(self):
        base = _scenario(flash_crowds=[])
        crowded = _scenario(
            flash_crowds=[
                {"start_ms": 0.0, "duration_ms": 400_000.0, "multiplier": 5.0}
            ]
        )
        rng = np.random.Generator(np.random.PCG64(3))
        n_base = len(base.sample_arrivals(rng))
        rng = np.random.Generator(np.random.PCG64(3))
        n_crowded = len(crowded.sample_arrivals(rng))
        assert n_crowded > 2 * n_base

    def test_diurnal_arrivals_follow_the_curve(self):
        sc = _scenario(
            horizon_ms=2_000_000,
            arrivals={
                "process": "diurnal",
                "rate_per_min": 30.0,
                "period_ms": 2_000_000.0,
                "amplitude": 0.95,
                "peak_ms": 500_000.0,
            },
        )
        rng = np.random.Generator(np.random.PCG64(11))
        arrivals = sc.sample_arrivals(rng)
        near_peak = sum(1 for t in arrivals if abs(t - 500_000.0) < 250_000.0)
        near_trough = sum(1 for t in arrivals if abs(t - 1_500_000.0) < 250_000.0)
        assert near_peak > 3 * near_trough


# ---------------------------------------------------------------------------
# Scenario construction and validation
# ---------------------------------------------------------------------------


class TestScenarioSchema:
    def test_from_payload_round_trip(self):
        sc = _scenario()
        assert sc.name == "test-town"
        assert sc.policies == ("fair-share", "deadline")
        assert sc.frames_min == 8 and sc.frames_max == 12
        assert isinstance(sc.fleet, RenderFleet)
        assert len(sc.profiles) == 2
        assert sc.profiles[0][0] is None  # "default" entry

    def test_from_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_payload()))
        assert DemandScenario.from_json(str(path)) == _scenario()

    def test_from_json_reads_trace_paths_against_the_scenario_file(
        self, tmp_path, monkeypatch
    ):
        """A relative trace CSV resolves beside the scenario, from any
        working directory, and keeps its name as written as its label."""
        at_root = DemandScenario.from_json(str(REPO / "examples" / "population.json"))
        monkeypatch.chdir(tmp_path)
        elsewhere = DemandScenario.from_json(
            str(REPO / "examples" / "population.json")
        )
        assert elsewhere == at_root
        labels = [p.name for p, _ in elsewhere.profiles if isinstance(p, TraceProfile)]
        assert labels == ["../data/lte_4g_drive.csv", "../data/nr_5g_walk.csv"]

        scenario_dir = tmp_path / "city"
        scenario_dir.mkdir()
        (scenario_dir / "link.csv").write_text("time_ms,throughput_mbps\n0,80\n500,20\n")
        path = scenario_dir / "scenario.json"
        path.write_text(json.dumps(_payload(profiles={"default": 1.0, "link.csv": 1.0})))
        (_, _), (link, _) = DemandScenario.from_json(str(path)).profiles
        assert link.name == "link.csv"
        assert link.throughput_mbps == (80.0, 20.0)

    def test_from_json_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            DemandScenario.from_json(str(tmp_path / "nope.json"))

    def test_from_json_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            DemandScenario.from_json(str(path))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario keys"):
            DemandScenario.from_payload(_payload(bogus=1))

    def test_missing_required_key_rejected(self):
        payload = _payload()
        del payload["fleet"]
        with pytest.raises(ConfigurationError, match='missing "fleet"'):
            DemandScenario.from_payload(payload)

    def test_unknown_arrival_process_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown arrival process"):
            _scenario(arrivals={"process": "weibull", "rate_per_min": 1.0})

    def test_unknown_arrival_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown poisson arrival"):
            _scenario(
                arrivals={"process": "poisson", "rate_per_min": 1.0, "phase": 2}
            )

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown app"):
            ClientTemplate(app="NotAGame")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheduling policy"):
            _scenario(policies=["fair-share", "magic"])

    def test_duplicate_policies_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate policies"):
            _scenario(policies=["fair-share", "fair-share"])

    def test_bad_party_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            _scenario(party_sizes={"0": 1.0})
        with pytest.raises(ConfigurationError):
            _scenario(party_sizes={"2": -1.0})

    def test_bad_frame_bounds_rejected(self):
        with pytest.raises(ConfigurationError, match="frames_min"):
            _scenario(duration_frames={"min": 12, "max": 8})

    def test_bad_churn_rejected(self):
        with pytest.raises(ConfigurationError, match="churn probability"):
            ChurnModel(late_join=1.5)

    def test_switch_without_targets_rejected(self):
        with pytest.raises(ConfigurationError, match="non-default profile"):
            _scenario(profiles={"default": 1.0})

    def test_bad_slo_floor_rejected(self):
        with pytest.raises(ConfigurationError, match="floor"):
            _scenario(slo={"p99_fps_floor": 0.0})


# ---------------------------------------------------------------------------
# Deterministic expansion
# ---------------------------------------------------------------------------


class TestExpansion:
    def test_same_seed_identical_sessions(self):
        sc = _scenario()
        assert sc.expand(seed=7) == sc.expand(seed=7)

    def test_different_seeds_distinct_arrivals(self):
        sc = _scenario()
        a, b = sc.expand(seed=7), sc.expand(seed=8)
        assert [p.arrival_ms for p in a] != [p.arrival_ms for p in b]

    def test_capped_expansion_is_a_prefix(self):
        sc = _scenario()
        full = sc.expand(seed=7)
        assert sc.expand(seed=7, max_sessions=5) == full[:5]

    def test_bad_max_sessions_rejected(self):
        with pytest.raises(ConfigurationError, match="max_sessions"):
            _scenario().expand(seed=7, max_sessions=0)

    def test_session_seeds_stride(self):
        planned = _scenario().expand(seed=7)
        assert [p.seed for p in planned[:3]] == [
            7 + SESSION_SEED_STRIDE,
            7 + 2 * SESSION_SEED_STRIDE,
            7 + 3 * SESSION_SEED_STRIDE,
        ]

    def test_expanded_sessions_are_valid_and_within_bounds(self):
        sc = _scenario()
        planned = sc.expand(seed=7)
        assert len(planned) > 10
        churn_events = 0
        for p in planned:
            assert 0.0 <= p.arrival_ms < sc.horizon_ms
            assert sc.frames_min <= p.n_frames <= sc.frames_max
            assert p.session.fleet is sc.fleet
            assert p.session.policy == sc.policies[0]
            churn_events += len(p.session.events)
            # every event type the churn model can emit plans cleanly
            p.session.timeline(system=sc.system, n_frames=p.n_frames, seed=p.seed)
        assert churn_events > 0

    def test_churn_emits_all_event_kinds(self):
        planned = _scenario(horizon_ms=2_000_000).expand(seed=7)
        kinds = {
            type(e) for p in planned for e in p.session.events
        }
        assert kinds == {Join, Leave, ProfileSwitch}

    def test_zero_churn_emits_no_events(self):
        planned = _scenario(
            churn={"late_join": 0.0, "leave": 0.0, "switch": 0.0}
        ).expand(seed=7)
        assert all(not p.session.events for p in planned)


# ---------------------------------------------------------------------------
# Streaming execution
# ---------------------------------------------------------------------------


class TestRunPopulation:
    @pytest.fixture(scope="class")
    def scenario(self):
        return DemandScenario.from_payload(_payload(horizon_ms=120_000))

    @pytest.fixture(scope="class")
    def serial_report(self, scenario):
        return run_population(scenario, seed=7, engine=BatchEngine())

    def test_report_shape(self, scenario, serial_report):
        report = serial_report
        assert report["scenario"] == "test-town"
        assert report["seed"] == 7
        assert set(report["policies"]) == {"fair-share", "deadline"}
        for r in report["policies"].values():
            assert r["executed"] == r["client_sessions"] > 0
            slo = r["slo"]
            assert slo["met"] + 0 <= slo["measured"]
            assert slo["measured"] + slo["unmeasured"] == r["executed"]
            assert 0.0 <= slo["attainment"] <= 1.0
            assert r["latency_ms"]["count"] > 0
            assert r["fps"]["count"] > 0

    def test_rerun_bit_identical(self, scenario, serial_report):
        again = run_population(scenario, seed=7, engine=BatchEngine())
        assert json.dumps(again, sort_keys=True) == json.dumps(
            serial_report, sort_keys=True
        )

    @pytest.mark.parametrize("shards", [1, 4, 16])
    def test_sharded_report_bit_identical(self, scenario, serial_report, shards):
        engine = BatchEngine(shards=shards)
        report = run_population(scenario, seed=7, engine=engine)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            serial_report, sort_keys=True
        )

    def test_different_seed_different_report(self, scenario, serial_report):
        other = run_population(scenario, seed=8, engine=BatchEngine())
        assert json.dumps(other, sort_keys=True) != json.dumps(
            serial_report, sort_keys=True
        )

    def test_policy_restriction(self, scenario):
        report = run_population(
            scenario, seed=7, engine=BatchEngine(), policies=("deadline",)
        )
        assert set(report["policies"]) == {"deadline"}

    def test_unknown_policy_restriction_rejected(self, scenario):
        with pytest.raises(ConfigurationError, match="not in the scenario"):
            run_population(scenario, seed=7, policies=("weighted",))

    def test_max_sessions_caps_the_city(self, scenario):
        report = run_population(
            scenario, seed=7, engine=BatchEngine(), max_sessions=3
        )
        assert report["sessions"] == 3

    def test_progress_callback_reaches_total(self, scenario):
        seen = []
        run_population(
            scenario,
            seed=7,
            engine=BatchEngine(),
            policies=("fair-share",),
            max_sessions=3,
            progress=lambda policy, done, total: seen.append((policy, done, total)),
        )
        assert seen[-1][0] == "fair-share"
        assert seen[-1][1] == seen[-1][2] > 0

    def test_stream_dir_holds_one_stream_for_every_policy(self, scenario, tmp_path):
        stream, cache = tmp_path / "stream", tmp_path / "cache"

        def engine(jobs):
            return BatchEngine(jobs=jobs, shards=2, stream_dir=stream, cache_dir=cache)

        first = engine(2)
        report = run_population(scenario, seed=7, engine=first, max_sessions=3)
        # One pass runs every policy's specs; the pool workers' spills are
        # gone, and the cache holds one run per client-session.
        assert first.stats.shard_specs == report["client_sessions"]
        assert list(stream.iterdir()) == []
        assert len(ResultCache(cache)) == report["client_sessions"]
        assert set(report["policies"]) == {"fair-share", "deadline"}

        rerun_engine = engine(1)
        rerun = run_population(scenario, seed=7, engine=rerun_engine, max_sessions=3)
        stats = rerun_engine.stats
        assert stats.executed == stats.shards == 0
        assert stats.cache_hits == report["client_sessions"]
        assert json.dumps(rerun, sort_keys=True) == json.dumps(report, sort_keys=True)


class TestShippedCity:
    """The seed-7 slices of ``examples/population.json`` that CI runs."""

    @pytest.fixture(scope="class")
    def city(self):
        return DemandScenario.from_json(str(REPO / "examples" / "population.json"))

    def test_planned_120_session_slice_keeps_its_size(self, city):
        """Planned, not executed; the 2% band absorbs libm rounding in
        the arrival sampler across platforms."""
        plans = (
            item.session.timeline(system=city.system, n_frames=item.n_frames, seed=item.seed)
            for item in city.expand(7, max_sessions=120)
        )
        specs = sum(len(plan.specs) for plan in plans)
        assert abs(specs * len(city.policies) - 510) <= 0.02 * 510

    def test_pool_run_reproduces_the_serial_golden(self, city):
        goldens = json.loads((REPO / "perfbench" / "goldens.json").read_text())
        engine = BatchEngine(jobs=2, shards=4)
        report = run_population(city, seed=7, engine=engine, max_sessions=60)
        assert engine.stats.workers == 2
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
        assert digest.hexdigest() == goldens["city-serial"]["7"]["digest"]


class TestMemoReuse:
    """Memo-group order lets each client's second policy hit the memos."""

    def test_second_policy_hits_the_kernel_memos(self, tmp_path, monkeypatch):
        scenario = _scenario()
        for name in ("_GEOMETRY_CACHE", "_WORKLOAD_CACHE", "_LATTICE_CACHE"):
            monkeypatch.setattr(kernels, name, OrderedDict())
        trace.configure(tmp_path / "t", process="parent")
        try:
            run_population(scenario, seed=7, engine=BatchEngine(), max_sessions=6)
        finally:
            trace.shutdown()
        _, merged = obs_report.load_trace(tmp_path / "t")
        counters = merged["counters"]
        for memo in ("kernels.fov", "kernels.workloads"):
            hits = counters.get(f"{memo}.hit", 0)
            lookups = hits + counters.get(f"{memo}.miss", 0)
            assert lookups > 0
            assert hits >= 0.45 * lookups, (memo, hits, lookups)

    def test_sweep_rows_counter_counts_integrated_rows(self, tmp_path, monkeypatch):
        """The traced row count equals the rows the sweeps hold."""
        for name in ("_GEOMETRY_CACHE", "_WORKLOAD_CACHE", "_LATTICE_CACHE"):
            monkeypatch.setattr(kernels, name, OrderedDict())
        app = APPS["GRID"]
        trace.configure(tmp_path / "t", process="parent")
        try:
            for system in ("qvr", "dfr", "ffr"):
                kernels.run_vectorized(system, app, seed=3, n_frames=24, warmup_frames=4)
        finally:
            trace.shutdown()
        _, merged = obs_report.load_trace(tmp_path / "t")
        kern = kernels._foveation_kernel(app, 3, kernels._workloads(app, 3, 24))
        rows = merged["counters"]["kernels.fov.sweep.rows"]
        assert rows == kern.sweep_rows() > 0
        assert rows <= len(kern._sweeps) * len(kern.master)

    @pytest.mark.parametrize("system", ["ffr", "dfr", "sw-qvr", "qvr"])
    def test_plan_calls_bound_new_plans(self, system, tmp_path, monkeypatch):
        """Every new plan was asked for: ``plan.new <= plan.calls``.

        The LIWC designs (dfr, qvr) plan twice a frame, a controller
        probe and the frame's partition; ffr and sw-qvr plan once, so on
        cold memos each of their lookups builds a plan — memoised or,
        for SW-QVR's off-lattice ``e1``, searched directly and counted
        all the same.
        """
        for name in ("_GEOMETRY_CACHE", "_WORKLOAD_CACHE", "_LATTICE_CACHE"):
            monkeypatch.setattr(kernels, name, OrderedDict())
        trace.configure(tmp_path / "t", process="parent")
        try:
            kernels.run_vectorized(system, APPS["GRID"], seed=3, n_frames=24,
                                   warmup_frames=4)
        finally:
            trace.shutdown()
        _, merged = obs_report.load_trace(tmp_path / "t")
        counters = merged["counters"]
        per_frame = 2 if system in ("dfr", "qvr") else 1
        assert counters["kernels.fov.plan.calls"] == 24 * per_frame
        assert 0 < counters["kernels.fov.plan.new"] <= counters["kernels.fov.plan.calls"]
        if per_frame == 1:
            assert counters["kernels.fov.plan.new"] == counters["kernels.fov.plan.calls"]

    def test_seeds_at_one_resolution_share_one_lattice(self):
        app = APPS["GRID"]
        first = kernels._foveation_kernel(app, 1, kernels._workloads(app, 1, 12))
        second = kernels._foveation_kernel(app, 2, kernels._workloads(app, 2, 12))
        assert first is not second
        assert first.lattice is second.lattice
