"""Bit-parity of the vectorized frame kernels against the scalar oracle.

The vectorized engine (:mod:`repro.sim.kernels`) must be a pure
performance refactor: for every system design, app, network environment
and server schedule, it has to produce *bit-identical* frame records to
the original per-frame task-graph pipeline, which stays available as the
``run(spec, "scalar")`` reference oracle.  These tests pin that contract —
any divergence, however small, is a bug in the kernels, never tolerance.
"""

import dataclasses
import math
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.network.conditions import WIFI
from repro.network.profile import PROFILES, TraceProfile
from repro.sim.kernels import run_vectorized
from repro.sim.metrics import DEFAULT_WARMUP, effective_warmup
from repro.obs import report, trace
from repro.sim.runner import BatchEngine, RunSpec, Sweep, run
from repro.sim.shard import ShardedExecutor
from repro.sim.systems import PlatformConfig, SYSTEM_NAMES


def assert_identical(vectorized, scalar):
    """Record-for-record, field-for-field bitwise equality (NaN == NaN)."""
    assert vectorized.system == scalar.system
    assert vectorized.app == scalar.app
    assert vectorized.warmup_frames == scalar.warmup_frames
    assert len(vectorized.records) == len(scalar.records)
    for rv, rs in zip(vectorized.records, scalar.records):
        for field in dataclasses.fields(rv):
            value_v = getattr(rv, field.name)
            value_s = getattr(rs, field.name)
            if (
                isinstance(value_v, float)
                and math.isnan(value_v)
                and math.isnan(value_s)
            ):
                continue
            assert value_v == value_s, (
                f"frame {rs.index}: {field.name} diverges "
                f"(vector {value_v!r} != scalar {value_s!r})"
            )


def run_both(system, app, platform=None, seed=0, n_frames=60, warmup_frames=10):
    """One spec through both engines; returns (vectorized, scalar)."""
    kwargs = dict(
        system=system,
        app=app,
        n_frames=n_frames,
        seed=seed,
        warmup_frames=warmup_frames,
    )
    if platform is not None:
        kwargs["platform"] = platform
    spec = RunSpec(**kwargs)
    return run(spec, "vector"), run(spec, "scalar")


#: Network/schedule environments the parity grid crosses every system
#: with.  ``piecewise-drop`` runs long enough (120 frames at ~11
#: ms/frame) to enter and leave wifi-drop's 900–1800 ms degraded window,
#: so parity covers the netdrop transient, not just steady state.
PLATFORM_CASES = {
    "static": (PlatformConfig(), 60),
    "piecewise-drop": (PlatformConfig(network=PROFILES["wifi-drop"]), 120),
    "markov": (PlatformConfig(network=PROFILES["wifi-markov"]), 60),
    "trace": (
        PlatformConfig(
            network=TraceProfile(
                base=WIFI,
                times_ms=(0.0, 300.0, 700.0),
                throughput_mbps=(200.0, 60.0, 150.0),
            )
        ),
        60,
    ),
    "server-schedule": (
        PlatformConfig(server_schedule=((0.0, 1.0), (350.0, 0.5))),
        60,
    ),
    "uplink": (PlatformConfig(network=replace(WIFI, uplink_mbps=20.0)), 60),
}


class TestBitParity:
    """Every system design, in every environment class."""

    @pytest.mark.parametrize("case", sorted(PLATFORM_CASES))
    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_every_system_in_every_environment(self, system, case):
        platform, n_frames = PLATFORM_CASES[case]
        vectorized, scalar = run_both(
            system, "Doom3-H", platform, n_frames=n_frames
        )
        assert_identical(vectorized, scalar)

    @pytest.mark.parametrize("app", ("GRID", "HL2-L"))
    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_other_resolutions_and_titles(self, system, app):
        """A second and third title, at a different render resolution."""
        vectorized, scalar = run_both(system, app, seed=3)
        assert_identical(vectorized, scalar)

    def test_netdrop_window_actually_reached(self):
        """The 120-frame piecewise run crosses into the degraded window.

        Guards the grid above against silently shrinking below the 900 ms
        drop onset: the tail of the wifi-drop run must diverge from the
        same spec on the static link.
        """
        platform, n_frames = PLATFORM_CASES["piecewise-drop"]
        dropped, _ = run_both("qvr", "Doom3-H", platform, n_frames=n_frames)
        static, _ = run_both("qvr", "Doom3-H", n_frames=n_frames)
        tail = slice(80, n_frames)
        assert [r.path_latency_ms for r in dropped.records[tail]] != [
            r.path_latency_ms for r in static.records[tail]
        ]

    def test_run_vectorized_direct_matches_runner_path(self):
        """The public kernel entry point equals the RunSpec dispatch."""
        spec = RunSpec(
            system="sw-qvr", app="Wolf", n_frames=40, warmup_frames=5
        )
        from repro.workloads.apps import get_app

        direct = run_vectorized(
            "sw-qvr",
            get_app("Wolf"),
            spec.effective_platform(),
            seed=0,
            n_frames=40,
            warmup_frames=5,
        )
        assert_identical(direct, run(spec))


class TestEngineSelection:
    """The engine is chosen by the executor, never by the spec."""

    def test_engine_validated(self):
        spec = RunSpec(system="local", app="GRID", n_frames=30, warmup_frames=5)
        with pytest.raises(ConfigurationError):
            run(spec, "turbo")
        with pytest.raises(ConfigurationError):
            BatchEngine(engine="turbo")
        with pytest.raises(ConfigurationError):
            ShardedExecutor(engine="turbo")

    def test_scalar_result_satisfies_vector_cache_entry(self, tmp_path):
        """A cache populated by one engine answers the other engine's specs."""
        spec = RunSpec(system="ffr", app="GRID", n_frames=30, warmup_frames=5)
        writer = BatchEngine(cache_dir=tmp_path, engine="scalar")
        scalar_result = writer.run_specs([spec])[spec]
        reader = BatchEngine(cache_dir=tmp_path, engine="vector")
        assert_identical(reader.run_specs([spec])[spec], scalar_result)
        assert reader.stats.executed == 0
        assert reader.stats.cache_hits == 1

    @pytest.mark.parametrize("engine,kernel_spans", [("scalar", 0), ("vector", 4)])
    def test_engine_choice_reaches_pool_workers(self, tmp_path, engine, kernel_spans):
        """Both engines return the same bits, so only the trace can tell
        which one ran: ``kernels.run`` spans open in ``run_vectorized``
        alone, one per spec a pool worker executes on the vector engine."""
        specs = Sweep(
            systems=("local", "qvr"), apps=("GRID",), seeds=(0, 1), n_frames=30
        ).specs()
        trace.configure(tmp_path / "t", process="parent")
        try:
            BatchEngine(jobs=2, shards=2, engine=engine).run_specs(specs)
        finally:
            trace.shutdown()
        events, _ = report.load_trace(tmp_path / "t")
        names = [begin["name"] for begin, _end in trace.spans(events)]
        assert names.count("shard.execute") == len(specs) == 4
        assert names.count("kernels.run") == kernel_spans


class TestMemoOrder:
    """The batch engine runs its misses grouped by the kernels' memo group."""

    def test_system_major_grid_builds_each_memo_entry_once(self, monkeypatch):
        import pickle
        from collections import Counter, OrderedDict

        from repro.sim import kernels
        from repro.workloads.generator import WorkloadGenerator

        for name in ("_GEOMETRY_CACHE", "_WORKLOAD_CACHE", "_LATTICE_CACHE"):
            monkeypatch.setattr(kernels, name, OrderedDict())
        streams = Counter()
        gaze_kernels = []
        generate = WorkloadGenerator.generate
        fov_init = kernels._FoveationKernel.__init__

        def counting_generate(gen, n_frames):
            streams[gen.app.name, gen.seed, n_frames] += 1
            return generate(gen, n_frames)

        def counting_init(kern, lattice, motion):
            gaze_kernels.append((lattice.width_px, lattice.height_px))
            return fov_init(kern, lattice, motion)

        monkeypatch.setattr(WorkloadGenerator, "generate", counting_generate)
        monkeypatch.setattr(kernels._FoveationKernel, "__init__", counting_init)
        # System-major: every design runs on every (app, seed) before the next.
        specs = Sweep(
            systems=("ffr", "dfr", "qvr"), apps=("Doom3-L", "GRID", "UT3"),
            seeds=(1, 2), n_frames=24,
        ).specs()
        results = BatchEngine().run_specs(specs)

        assert sorted(streams.values()) == [1] * 6  # 3 apps x 2 seeds
        # GRID and UT3 share a panel: 2 seeds x 2 resolutions, each built once.
        assert sorted(gaze_kernels) == [(1280, 1600)] * 2 + [(1920, 2160)] * 2
        assert len(kernels._WORKLOAD_CACHE) <= 1
        assert len(kernels._GEOMETRY_CACHE) <= 1
        assert list(results) == list(specs)
        assert [pickle.dumps(results[spec]) for spec in specs] == [
            pickle.dumps(run(spec)) for spec in specs
        ]


class TestWarmupClamping:
    """One clamping rule, shared by both engines and the sweep layer."""

    def test_effective_warmup_rule(self):
        assert effective_warmup(300) == DEFAULT_WARMUP
        assert effective_warmup(31) == 30
        assert effective_warmup(30) == 0
        assert effective_warmup(10, 4) == 4
        assert effective_warmup(2, 1) == 1
        assert effective_warmup(1) == 0

    @pytest.mark.parametrize("n_frames,warmup", [(1, 0), (2, 1), (3, 2)])
    def test_tiny_runs_agree_across_engines(self, n_frames, warmup):
        """The n_frames <= 2 edge keeps the clamped warm-up, identically."""
        for system in ("local", "qvr"):
            vectorized, scalar = run_both(
                system, "GRID", n_frames=n_frames, warmup_frames=warmup
            )
            assert_identical(vectorized, scalar)
            assert vectorized.warmup_frames == warmup
