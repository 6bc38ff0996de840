"""Canned experiments: one function per paper table/figure.

Every function is deterministic for a given seed and returns structured
rows.  Frame counts default to the paper's 300 (Fig. 14) but are
parameters so tests can run shorter.

Simulation-backed experiments (Fig. 12/13/14, Table 4, Fig. 15) declare
their parameter grids as :class:`~repro.sim.runner.Sweep` values and
consume batch results from a :class:`~repro.sim.runner.BatchEngine`, so
one engine (with its process pool and on-disk cache) can serve every
figure; the remaining experiments are closed-form analytic models with
no simulation runs.  :data:`EXPERIMENTS` gives each figure and table one
entry (run function, default frame count, table formatter, and the paper
anchors it measures) for the ``repro batch`` CLI and the benchmark
harness.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable, TYPE_CHECKING

if TYPE_CHECKING:  # runtime imports stay lazy at the call sites
    from repro.sim.session import Session

import numpy as np

from repro import constants
from repro.analysis.report import format_table
from repro.codec.h264 import H264Model
from repro.core.foveation import DisplayGeometry, FoveationModel
from repro.core.uca import UCAUnit
from repro.energy.accounting import EnergyAccountant
from repro.energy.mcpat import OverheadReport, estimate_liwc, estimate_uca
from repro.gpu.config import GPUConfig
from repro.gpu.perf_model import GPUPerfModel, RenderWorkload
from repro.network.channel import NetworkChannel
from repro.network.conditions import ALL_CONDITIONS, NetworkConditions, WIFI
from repro.network.profile import PiecewiseProfile, TraceProfile
from repro.sim.metrics import window_stats
from repro.sim.runner import (
    BatchEngine,
    Sweep,
    default_engine,
    speedup_over,
)
from repro.sim.systems import PlatformConfig
from repro.workloads.apps import APPS, TABLE3_ORDER
from repro.workloads.scene_model import InteractionModel
from repro.workloads.tethered import TABLE1_ORDER, TETHERED_APPS

__all__ = [
    "Fig3Row",
    "fig3_motivation",
    "Table1Row",
    "table1_static_characterization",
    "fig5_interaction_latency",
    "Fig6Row",
    "fig6_foveal_sizing",
    "Fig12Row",
    "fig12_performance",
    "Fig13Row",
    "fig13_transmission",
    "Fig14Series",
    "fig14_balancing",
    "Table4Cell",
    "table4_eccentricity",
    "Fig15Cell",
    "fig15_energy",
    "NetDropRow",
    "NETDROP_APPS",
    "default_netdrop_profile",
    "netdrop_adaptation",
    "AdmissionRow",
    "ADMISSION_APPS",
    "ADMISSION_POLICIES",
    "default_admission_trace",
    "admission_scheduling",
    "ChurnRow",
    "CHURN_POLICIES",
    "default_churn_session",
    "session_churn",
    "FailoverRow",
    "FAILOVER_MODES",
    "default_failover_session",
    "failover_recovery",
    "overhead_analysis",
    "GPU_FREQUENCIES_MHZ",
    "Experiment",
    "EXPERIMENTS",
]

#: GPU frequency sweep of the sensitivity study (Table 4 / Fig. 15).
GPU_FREQUENCIES_MHZ: tuple[float, ...] = (500.0, 400.0, 300.0)

#: ATW cost on the Gen 9 physical test platform of Sec. 2.3, in ms.
_TETHERED_ATW_MS = 3.0

#: Input-send CPU cost for remote rendering on the test platform, in ms.
_TETHERED_SEND_MS = 1.0


# ---------------------------------------------------------------------------
# Fig. 3: motivation — local-only and remote-only latency breakdowns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig3Row:
    """One app's latency breakdown under a single-site rendering design."""

    app: str
    tracking_ms: float
    sending_ms: float
    rendering_ms: float
    transmit_ms: float
    atw_ms: float
    display_ms: float
    fps: float

    @property
    def total_ms(self) -> float:
        """End-to-end system latency (the stacked bar height)."""
        return (
            self.tracking_ms
            + self.sending_ms
            + self.rendering_ms
            + self.transmit_ms
            + self.atw_ms
            + self.display_ms
        )

    @property
    def transmit_share(self) -> float:
        """Fraction of the total spent in network transmission."""
        return self.transmit_ms / self.total_ms if self.total_ms > 0 else 0.0


def fig3_motivation(
    conditions: NetworkConditions = WIFI, seed: int = 0
) -> tuple[list[Fig3Row], list[Fig3Row]]:
    """Reproduce Fig. 3: (local-only rows, remote-only rows).

    Runs the Table 1 tethered apps on the Sec. 2.3 physical-platform
    model: local-only renders the full frame on the mobile processor;
    remote-only streams full frames from the server.
    """
    codec = H264Model()
    channel = NetworkChannel(conditions, seed=seed)
    local_rows: list[Fig3Row] = []
    remote_rows: list[Fig3Row] = []
    for name in TABLE1_ORDER:
        app = TETHERED_APPS[name]
        local_rows.append(
            Fig3Row(
                app=name,
                tracking_ms=constants.SENSOR_TRANSPORT_MS,
                sending_ms=0.0,
                rendering_ms=app.full_frame_ms,
                transmit_ms=0.0,
                atw_ms=_TETHERED_ATW_MS,
                display_ms=constants.DISPLAY_SCANOUT_MS,
                fps=1000.0 / (app.full_frame_ms + _TETHERED_ATW_MS),
            )
        )
        payload = codec.encode(app.pixels_per_frame, app.content_complexity).payload_bytes
        transmit = channel.expected_transfer_time_ms(payload)
        server_render = app.full_frame_ms / 30.0  # high-end multi-GPU server
        remote_rows.append(
            Fig3Row(
                app=name,
                tracking_ms=constants.SENSOR_TRANSPORT_MS,
                sending_ms=_TETHERED_SEND_MS + channel.one_way_ms,
                rendering_ms=server_render,
                transmit_ms=transmit,
                atw_ms=_TETHERED_ATW_MS + codec.decode_time_ms(app.pixels_per_frame),
                display_ms=constants.DISPLAY_SCANOUT_MS,
                fps=1000.0 / transmit,
            )
        )
    return local_rows, remote_rows


# ---------------------------------------------------------------------------
# Table 1: static collaborative characterisation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Row:
    """Static-collaboration characterisation of one tethered app."""

    app: str
    resolution: str
    triangles: float
    interactive_objects: str
    f_min: float
    f_max: float
    avg_local_ms: float
    min_local_ms: float
    max_local_ms: float
    back_size_kb: float
    remote_ms: float


def table1_static_characterization(
    n_frames: int = 600, seed: int = 0
) -> list[Table1Row]:
    """Reproduce Table 1 by replaying interaction traces per app."""
    codec = H264Model()
    channel = NetworkChannel(WIFI, seed=seed)
    rows: list[Table1Row] = []
    for index, name in enumerate(TABLE1_ORDER):
        app = TETHERED_APPS[name]
        interaction = InteractionModel(seed=seed + index)
        locals_ms = [
            app.interactive_latency_ms(interaction.step()) for _ in range(n_frames)
        ]
        payload = codec.encode(app.pixels_per_frame, app.content_complexity).payload_bytes
        remote_ms = (
            channel.expected_transfer_time_ms(payload)
            + channel.one_way_ms
            + codec.decode_time_ms(app.pixels_per_frame)
        )
        rows.append(
            Table1Row(
                app=name,
                resolution=f"{app.width_px}x{app.height_px}",
                triangles=app.triangles,
                interactive_objects=app.interactive_objects,
                f_min=app.f_range[0],
                f_max=app.f_range[1],
                avg_local_ms=float(np.mean(locals_ms)),
                min_local_ms=float(np.min(locals_ms)),
                max_local_ms=float(np.max(locals_ms)),
                back_size_kb=payload / 1e3,
                remote_ms=remote_ms,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 5: interaction-dependent latency of a single object (Nature tree)
# ---------------------------------------------------------------------------


def fig5_interaction_latency(
    app_name: str = "Nature", closeness_values: tuple[float, ...] = (0.3, 0.45, 1.0)
) -> list[tuple[float, float]]:
    """Reproduce Fig. 5: (closeness, interactive render latency) points.

    The paper's three snapshots of the Nature tree land at 12, 15 and
    26 ms; closeness sweeps reproduce that span through the LOD model.
    """
    if app_name not in TETHERED_APPS:
        raise KeyError(f"unknown tethered app {app_name!r}; known: {sorted(TETHERED_APPS)}")
    app = TETHERED_APPS[app_name]
    return [(c, app.interactive_latency_ms(c)) for c in closeness_values]


# ---------------------------------------------------------------------------
# Fig. 6: foveal rendering latency and frame size vs eccentricity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig6Row:
    """One (scene, eccentricity) sample of the foveal-sizing study."""

    scene: str
    e1_deg: float
    local_latency_ms: float
    relative_frame_size: float


#: Synthetic Foveated3D-like scene configurations of Fig. 6.
_FIG6_SCENES: tuple[tuple[str, float, float, float, float], ...] = (
    # (label, objects, triangles/object, overdraw, fragment cycles)
    ("400 objects 4k triangles/object", 400, 4000, 1.6, 400.0),
    ("800 objects 4k triangles/object", 800, 4000, 2.2, 450.0),
    ("400 objects 8k triangles/object", 400, 8000, 1.9, 900.0),
)


def fig6_foveal_sizing(
    e1_values_deg: tuple[float, ...] = (5, 10, 15, 20, 25, 30, 35),
    gpu: GPUConfig | None = None,
) -> list[Fig6Row]:
    """Reproduce Fig. 6 on synthetic Foveated3D-style scenes."""
    gpu_cfg = gpu if gpu is not None else GPUConfig()
    perf = GPUPerfModel(gpu_cfg)
    display = DisplayGeometry(1920, 2160)
    foveation = FoveationModel(display)
    rows: list[Fig6Row] = []
    pixels = display.total_pixels * constants.EYES
    for label, objects, tris_per_obj, overdraw, cycles in _FIG6_SCENES:
        full = RenderWorkload(
            vertices=objects * tris_per_obj,
            fragments=pixels * overdraw,
            fragment_cycles=cycles,
            draw_batches=objects,
        )
        for e1 in e1_values_deg:
            plan = foveation.plan(float(e1))
            area = plan.fovea_fraction
            fovea_workload = full.scaled(
                fragment_scale=area, vertex_scale=0.12 + 0.88 * area
            )
            rows.append(
                Fig6Row(
                    scene=label,
                    e1_deg=float(e1),
                    local_latency_ms=perf.render_time_ms(fovea_workload),
                    relative_frame_size=plan.effective_pixels / plan.native_pixels,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 12: overall performance of the design spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig12Row:
    """Normalized performance of every design on one app."""

    app: str
    static_speedup: float
    ffr_speedup: float
    dfr_speedup: float
    qvr_speedup: float
    sw_fps: float
    qvr_fps: float
    static_fps: float


#: The design spectrum compared in Fig. 12.
_FIG12_SYSTEMS: tuple[str, ...] = ("local", "static", "ffr", "dfr", "sw-qvr", "qvr")


def fig12_performance(
    n_frames: int = 300,
    seed: int = 0,
    platform: PlatformConfig | None = None,
    engine: BatchEngine | None = None,
) -> list[Fig12Row]:
    """Reproduce Fig. 12 under the default hardware and network."""
    platform = platform if platform is not None else PlatformConfig()
    sweep = Sweep(
        systems=_FIG12_SYSTEMS,
        apps=TABLE3_ORDER,
        platforms=(platform,),
        seeds=(seed,),
        n_frames=n_frames,
    )
    batch = (engine if engine is not None else default_engine()).run_sweep(sweep)
    rows: list[Fig12Row] = []
    for app in TABLE3_ORDER:
        results = {
            system: batch[sweep.spec(system, app, platform, seed)]
            for system in _FIG12_SYSTEMS
        }
        rows.append(
            Fig12Row(
                app=app,
                static_speedup=speedup_over(results, "static"),
                ffr_speedup=speedup_over(results, "ffr"),
                dfr_speedup=speedup_over(results, "dfr"),
                qvr_speedup=speedup_over(results, "qvr"),
                sw_fps=results["sw-qvr"].measured_fps,
                qvr_fps=results["qvr"].measured_fps,
                static_fps=results["static"].measured_fps,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 13: transmitted data and resolution reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig13Row:
    """Transmission metrics of one app, normalised to remote-only."""

    app: str
    static_normalized: float
    ffr_normalized: float
    qvr_normalized: float
    resolution_reduction: float


#: The designs whose downlink traffic Fig. 13 compares.
_FIG13_SYSTEMS: tuple[str, ...] = ("remote", "static", "ffr", "qvr")


def fig13_transmission(
    n_frames: int = 300,
    seed: int = 0,
    platform: PlatformConfig | None = None,
    engine: BatchEngine | None = None,
) -> list[Fig13Row]:
    """Reproduce Fig. 13 under the default hardware and network."""
    platform = platform if platform is not None else PlatformConfig()
    sweep = Sweep(
        systems=_FIG13_SYSTEMS,
        apps=TABLE3_ORDER,
        platforms=(platform,),
        seeds=(seed,),
        n_frames=n_frames,
    )
    batch = (engine if engine is not None else default_engine()).run_sweep(sweep)
    rows: list[Fig13Row] = []
    for app in TABLE3_ORDER:
        results = {
            system: batch[sweep.spec(system, app, platform, seed)]
            for system in _FIG13_SYSTEMS
        }
        reference = results["remote"].mean_transmitted_bytes
        rows.append(
            Fig13Row(
                app=app,
                static_normalized=results["static"].mean_transmitted_bytes / reference,
                ffr_normalized=results["ffr"].mean_transmitted_bytes / reference,
                qvr_normalized=results["qvr"].mean_transmitted_bytes / reference,
                resolution_reduction=results["qvr"].mean_resolution_reduction,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 14: latency-ratio balancing and FPS over 300 frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig14Series:
    """Per-frame balance and FPS trace of one app under Q-VR."""

    app: str
    latency_ratios: list[float] = field(default_factory=list)
    fps: list[float] = field(default_factory=list)
    e1_deg: list[float] = field(default_factory=list)


#: The five high-resolution titles plotted in Fig. 14.
FIG14_APPS: tuple[str, ...] = ("Doom3-H", "HL2-H", "GRID", "UT3", "Wolf")


def fig14_balancing(
    n_frames: int = 300,
    seed: int = 0,
    platform: PlatformConfig | None = None,
    engine: BatchEngine | None = None,
) -> list[Fig14Series]:
    """Reproduce Fig. 14: Q-VR initialised at e1 = 5 degrees."""
    platform = platform if platform is not None else PlatformConfig()
    sweep = Sweep(
        systems=("qvr",),
        apps=FIG14_APPS,
        platforms=(platform,),
        seeds=(seed,),
        n_frames=n_frames,
        warmup_frames=0,
    )
    batch = (engine if engine is not None else default_engine()).run_sweep(sweep)
    series: list[Fig14Series] = []
    for app in FIG14_APPS:
        result = batch[sweep.spec("qvr", app, platform, seed)]
        fps = [
            min(
                1000.0 / r.gpu_busy_ms if r.gpu_busy_ms > 0 else float("inf"),
                1000.0 / r.net_busy_ms if r.net_busy_ms > 0 else float("inf"),
            )
            for r in result.records
        ]
        series.append(
            Fig14Series(
                app=app,
                latency_ratios=result.latency_ratios(),
                fps=fps,
                e1_deg=[r.e1_deg for r in result.records],
            )
        )
    return series


# ---------------------------------------------------------------------------
# Table 4: best eccentricity across hardware/network configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table4Cell:
    """Steady-state eccentricity for one (frequency, network, app) cell."""

    frequency_mhz: float
    network: str
    app: str
    mean_e1_deg: float
    meets_fps: bool


def _condition_platforms(
    frequencies: tuple[float, ...], networks: tuple[NetworkConditions, ...]
) -> list[tuple[float, NetworkConditions, PlatformConfig]]:
    """The (frequency, network, platform) grid behind Table 4 / Fig. 15."""
    return [
        (freq, network, PlatformConfig(network=network).with_gpu_frequency(freq))
        for freq in frequencies
        for network in networks
    ]


def table4_eccentricity(
    n_frames: int = 240,
    seed: int = 0,
    frequencies: tuple[float, ...] = GPU_FREQUENCIES_MHZ,
    networks: tuple[NetworkConditions, ...] = ALL_CONDITIONS,
    apps: tuple[str, ...] = TABLE3_ORDER,
    engine: BatchEngine | None = None,
) -> list[Table4Cell]:
    """Reproduce Table 4 (and provide the runs behind Fig. 15)."""
    grid = _condition_platforms(frequencies, networks)
    sweep = Sweep(
        systems=("qvr",),
        apps=apps,
        platforms=tuple(platform for _, _, platform in grid),
        seeds=(seed,),
        n_frames=n_frames,
    )
    batch = (engine if engine is not None else default_engine()).run_sweep(sweep)
    cells: list[Table4Cell] = []
    for freq, network, platform in grid:
        for app in apps:
            result = batch[sweep.spec("qvr", app, platform, seed)]
            cells.append(
                Table4Cell(
                    frequency_mhz=freq,
                    network=network.name,
                    app=app,
                    mean_e1_deg=result.mean_e1_deg,
                    meets_fps=result.meets_target_fps,
                )
            )
    return cells


# ---------------------------------------------------------------------------
# Fig. 15: normalized system energy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig15Cell:
    """Normalized Q-VR energy for one (frequency, network, app) cell."""

    frequency_mhz: float
    network: str
    app: str
    normalized_energy: float


def fig15_energy(
    n_frames: int = 240,
    seed: int = 0,
    frequencies: tuple[float, ...] = GPU_FREQUENCIES_MHZ,
    networks: tuple[NetworkConditions, ...] = ALL_CONDITIONS,
    apps: tuple[str, ...] = TABLE3_ORDER,
    engine: BatchEngine | None = None,
) -> list[Fig15Cell]:
    """Reproduce Fig. 15: Q-VR energy normalised to local rendering.

    Two sweeps share one batch: local-rendering baselines per GPU
    frequency, and the Q-VR cells across every (frequency, network)
    condition — the latter are spec-identical to Table 4's runs, so a
    caching engine computes them only once across both experiments.
    """
    accountant = EnergyAccountant()
    baseline_sweep = Sweep(
        systems=("local",),
        apps=apps,
        platforms=tuple(
            PlatformConfig().with_gpu_frequency(freq) for freq in frequencies
        ),
        seeds=(seed,),
        n_frames=n_frames,
    )
    grid = _condition_platforms(frequencies, networks)
    qvr_sweep = Sweep(
        systems=("qvr",),
        apps=apps,
        platforms=tuple(platform for _, _, platform in grid),
        seeds=(seed,),
        n_frames=n_frames,
    )
    chosen = engine if engine is not None else default_engine()
    batch = chosen.run_specs(baseline_sweep.specs() + qvr_sweep.specs())
    cells: list[Fig15Cell] = []
    for freq, network, platform in grid:
        base_platform = PlatformConfig().with_gpu_frequency(freq)
        for app in apps:
            result = batch[qvr_sweep.spec("qvr", app, platform, seed)]
            baseline = batch[baseline_sweep.spec("local", app, base_platform, seed)]
            cells.append(
                Fig15Cell(
                    frequency_mhz=freq,
                    network=network.name,
                    app=app,
                    normalized_energy=accountant.normalized_energy(
                        result,
                        baseline,
                        gpu_frequency_mhz=freq,
                        network_name=network.name,
                        has_liwc=True,
                        has_uca=True,
                    ),
                )
            )
    return cells


# ---------------------------------------------------------------------------
# Dynamic environments: adaptation under a mid-run bandwidth drop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetDropRow:
    """Q-VR steady-state behaviour inside one window of a drop profile.

    The paper's prediction for a degraded link (Table 4 reasoning applied
    mid-run): eccentricity grows (more rendering moves onto the local
    GPU) and the remote share — downlink bytes per frame — shrinks, then
    both recover when the bandwidth returns.
    """

    app: str
    window: str
    frames: int
    mean_e1_deg: float
    measured_fps: float
    mean_kb_per_frame: float


#: Titles of the bandwidth-drop adaptation study (one heavy, one light).
NETDROP_APPS: tuple[str, ...] = ("Doom3-H", "GRID")

#: Window labels when the profile is the canonical before/drop/after shape.
_NETDROP_WINDOWS = ("before", "drop", "after")


def default_netdrop_profile(n_frames: int) -> PiecewiseProfile:
    """The canonical drop profile scaled to a run of ``n_frames``.

    The window is placed in wall-clock terms assuming the 90 Hz target
    frame period: nominal Wi-Fi for the first ~30% of the run, a deep
    (x0.15) bandwidth drop for the middle ~40%, then recovery.
    """
    frame_ms = 1000.0 / constants.TARGET_FPS
    return PiecewiseProfile.bandwidth_drop(
        WIFI,
        start_ms=0.3 * n_frames * frame_ms,
        duration_ms=0.4 * n_frames * frame_ms,
        factor=0.15,
        label="netdrop",
    )


def netdrop_adaptation(
    n_frames: int = 240,
    seed: int = 0,
    apps: tuple[str, ...] = NETDROP_APPS,
    profile: PiecewiseProfile | None = None,
    engine: BatchEngine | None = None,
) -> list[NetDropRow]:
    """Q-VR FPS/eccentricity adaptation under a bandwidth-drop trace.

    Runs Q-VR under a piecewise drop profile and reports per-window
    steady-state metrics (:func:`~repro.sim.metrics.window_stats`),
    classifying each frame by its display instant against the profile's
    segment boundaries.
    """
    profile = profile if profile is not None else default_netdrop_profile(n_frames)
    edges = (0.0, *profile.boundaries_ms, float("inf"))
    names = (
        _NETDROP_WINDOWS
        if len(profile.segments) == 3
        else tuple(f"seg{i}" for i in range(len(profile.segments)))
    )
    platform = PlatformConfig(network=profile)
    sweep = Sweep(
        systems=("qvr",),
        apps=apps,
        platforms=(platform,),
        seeds=(seed,),
        n_frames=n_frames,
        warmup_frames=0,
    )
    batch = (engine if engine is not None else default_engine()).run_sweep(sweep)
    rows: list[NetDropRow] = []
    for app in apps:
        result = batch[sweep.spec("qvr", app, platform, seed)]
        for name, start_ms, end_ms in zip(names, edges, edges[1:]):
            stats = window_stats(result.records, start_ms, end_ms)
            rows.append(
                NetDropRow(
                    app=app,
                    window=name,
                    frames=stats.frames,
                    mean_e1_deg=stats.mean_e1_deg,
                    measured_fps=stats.mean_fps,
                    mean_kb_per_frame=stats.mean_kb_per_frame,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Admission & scheduling: policy comparison on a shared session
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionRow:
    """One client of a shared session under one scheduling policy.

    The testable prediction (Firefly/Coterie reasoning applied to the
    Q-VR server): under ``deadline`` scheduling the heavy client's tail
    frame rate inside a trace-driven bandwidth drop improves over
    ``fair-share`` — the server boosts the client closest to missing its
    frame deadline — while the session's mean FPS stays within noise
    (shares are conserved, not conjured).
    """

    policy: str
    app: str
    mean_fps: float
    drop_fps: float
    drop_p99_fps: float
    mean_e1_deg: float
    mean_kb_per_frame: float


#: The admission study roster: one heavy title, one light title, sharing
#: a server and one trace-driven link.
ADMISSION_APPS: tuple[str, ...] = ("GRID", "Doom3-L")

#: Scheduling policies the admission experiment compares by default.
#: ``weighted`` is omitted: on a roster sharing one link every client has
#: the same instantaneous bandwidth, so its weights provably collapse to
#: the uniform fair share — pass ``policies=(..., "weighted")`` when the
#: roster mixes links and the comparison is informative.
ADMISSION_POLICIES: tuple[str, ...] = ("fair-share", "deadline")


def default_admission_trace(n_frames: int) -> "TraceProfile":
    """A trace-driven bandwidth drop scaled to a run of ``n_frames``.

    Step-trace replay semantics (the format of 4G/5G drive traces):
    nominal Wi-Fi, a deep drop to 30 Mbps for the middle ~40% of the
    nominal session, then recovery.
    """
    frame_ms = 1000.0 / constants.TARGET_FPS
    return TraceProfile(
        base=WIFI,
        times_ms=(0.0, 0.3 * n_frames * frame_ms, 0.7 * n_frames * frame_ms),
        throughput_mbps=(WIFI.throughput_mbps, 30.0, WIFI.throughput_mbps),
        label="admission-drop",
    )


def admission_scheduling(
    n_frames: int = 240,
    seed: int = 0,
    apps: tuple[str, ...] = ADMISSION_APPS,
    policies: tuple[str, ...] = ADMISSION_POLICIES,
    trace: TraceProfile | None = None,
    engine: BatchEngine | None = None,
) -> list[AdmissionRow]:
    """Compare server scheduling policies on one heterogeneous session.

    Runs the same roster (one client per entry of ``apps``, all sharing
    the server and one trace-driven link) under each policy, and reports
    per-client whole-run and drop-window frame rates.  All sessions'
    specs execute through one batch (so a parallel or caching engine
    accelerates the grid); the fair-share rows are the uniform-division
    baseline the other policies are compared against.
    """
    from repro.sim.session import ClientSpec, Session

    trace = trace if trace is not None else default_admission_trace(n_frames)
    if len(trace.times_ms) != 3:
        raise ValueError(
            "admission experiment needs a before/drop/after step trace "
            f"(3 samples), got {len(trace.times_ms)}"
        )
    drop_start, drop_end = trace.times_ms[1], trace.times_ms[2]
    platform = PlatformConfig(network=trace)
    timelines = {
        policy: Session(
            clients=tuple(ClientSpec(app) for app in apps),
            platform=platform,
            policy=policy,
        ).timeline(n_frames=n_frames, seed=seed)
        for policy in policies
    }
    chosen = engine if engine is not None else default_engine()
    batch = chosen.run_specs(
        [spec for timeline in timelines.values() for spec in timeline.specs]
    )
    rows: list[AdmissionRow] = []
    for policy, timeline in timelines.items():
        for spec in timeline.specs:
            result = batch[spec]
            drop = window_stats(result.records, drop_start, drop_end)
            rows.append(
                AdmissionRow(
                    policy=policy,
                    app=spec.app,
                    mean_fps=result.measured_fps,
                    drop_fps=drop.mean_fps,
                    drop_p99_fps=drop.p99_fps,
                    mean_e1_deg=result.mean_e1_deg,
                    mean_kb_per_frame=result.mean_transmitted_bytes / 1e3,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Session churn: online re-admission and late-start queue promotion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnRow:
    """One client of an event-driven session under one scheduling policy.

    The testable prediction (the collaborative-VR survey literature's
    churn workload applied to the Q-VR server): a client that arrives
    mid-session while the server is full **queues, then genuinely starts
    late** — promoted into the capacity a departing client frees, with a
    nonzero ``start_ms`` and nonzero rendered frames — and under
    ``deadline`` scheduling the re-admission does less tail-FPS damage
    to the remaining incumbent inside the contention/drop window than
    under ``fair-share`` (the server boosts the client closest to
    missing its frame deadline instead of splitting evenly).
    """

    policy: str
    client: int
    app: str
    role: str
    joined_ms: float
    start_ms: float
    frames: int
    mean_fps: float
    window_p99_fps: float


#: Scheduling policies the churn experiment compares by default.
CHURN_POLICIES: tuple[str, ...] = ("fair-share", "deadline")

#: Session-relative instants of the canonical churn script: a third
#: client joins (and queues) at 20% of the nominal session, the light
#: incumbent leaves at 40% (freeing the capacity the joiner takes), and
#: the trace-driven link drop spans [30%, 70%).
_CHURN_JOIN_FRACTION = 0.2
_CHURN_LEAVE_FRACTION = 0.4


def default_churn_session(
    n_frames: int,
    policy: str = "fair-share",
    trace: TraceProfile | None = None,
) -> "Session":
    """The canonical churn session scaled to a run of ``n_frames``.

    Two incumbents (heavy GRID + light Doom3-L) fill a two-client-
    equivalent server in queue mode; a third client joins mid-session
    and must wait until the light incumbent departs.
    """
    from repro.sim.server import RenderServer
    from repro.sim.session import ClientSpec, Join, Leave, Session

    trace = trace if trace is not None else default_admission_trace(n_frames)
    duration_ms = n_frames * constants.FRAME_BUDGET_MS
    return Session(
        clients=(ClientSpec("GRID"), ClientSpec("Doom3-L")),
        events=(
            Join(_CHURN_JOIN_FRACTION * duration_ms, ClientSpec("Doom3-L")),
            Leave(_CHURN_LEAVE_FRACTION * duration_ms, client=1),
        ),
        platform=PlatformConfig(network=trace),
        policy=policy,
        server=RenderServer(capacity_clients=2.0, overflow="queue"),
    )


def session_churn(
    n_frames: int = 240,
    seed: int = 0,
    policies: tuple[str, ...] = CHURN_POLICIES,
    trace: TraceProfile | None = None,
    engine: BatchEngine | None = None,
) -> list[ChurnRow]:
    """Compare scheduling policies on one churning session.

    Plans the same event timeline (join → queue → promote-on-leave)
    under each policy, executes every timeline's specs through one batch
    (so parallel/caching engines accelerate the grid), and reports each
    client's whole-run FPS plus its tail FPS inside the churn window —
    from the joiner's promotion instant to the end of the link drop,
    when the promoted client and the surviving incumbent contend on the
    degraded link.
    """
    from repro.sim.session import SessionResult

    trace = trace if trace is not None else default_admission_trace(n_frames)
    if len(trace.times_ms) != 3:
        raise ValueError(
            "churn experiment needs a before/drop/after step trace "
            f"(3 samples), got {len(trace.times_ms)}"
        )
    duration_ms = n_frames * constants.FRAME_BUDGET_MS
    window_start = _CHURN_LEAVE_FRACTION * duration_ms
    window_end = trace.times_ms[2]
    timelines = {
        policy: default_churn_session(n_frames, policy, trace).timeline(
            n_frames=n_frames, seed=seed
        )
        for policy in policies
    }
    chosen = engine if engine is not None else default_engine()
    batch = chosen.run_specs(
        [spec for tl in timelines.values() for spec in tl.specs]
    )
    roles = {0: "incumbent", 1: "leaver", 2: "joiner"}
    rows: list[ChurnRow] = []
    for policy, timeline in timelines.items():
        result = SessionResult(
            timeline=timeline,
            per_client=tuple(batch[spec] for spec in timeline.specs),
        )
        for client in timeline.clients:
            run = result.result_for(client.index)
            if run is None or client.start_ms is None:
                continue
            window = result.client_window(client.index, window_start, window_end)
            rows.append(
                ChurnRow(
                    policy=policy,
                    client=client.index,
                    app=client.spec.app,
                    role=roles.get(client.index, "client"),
                    joined_ms=client.joined_ms,
                    start_ms=client.start_ms,
                    frames=len(run.records),
                    mean_fps=run.measured_fps,
                    window_p99_fps=(
                        window.p99_fps if window is not None else float("nan")
                    ),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Failover: server failure, migration vs naive re-queue on a render fleet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FailoverRow:
    """One client of a fleet session under one failover mode.

    The testable prediction (elastic-infrastructure reasoning applied to
    the Q-VR server tier): when a fleet server **fails mid-session**,
    re-seating the displaced client on a surviving server via
    least-loaded migration — even paying the state-transfer penalty —
    keeps its tail frame rate inside the failure window far above the
    naive baseline that re-queues it FCFS behind the incumbents (where
    it renders at the starvation share until a later re-planning event,
    which never comes).
    """

    mode: str
    client: int
    app: str
    role: str
    servers: str
    migrations: int
    mean_fps: float
    window_p99_fps: float


#: Failover modes compared by default: least-loaded migration vs the
#: naive re-queue baseline (same fleet, migration disabled).
FAILOVER_MODES: tuple[str, ...] = ("least-loaded", "requeue")

#: Session-relative instants of the canonical failover script: server
#: ``b`` fails at 40% of the nominal session; the drop window over which
#: tails are compared spans the following 40%.
_FAILOVER_FAIL_FRACTION = 0.4
_FAILOVER_WINDOW_FRACTION = 0.4


def default_failover_session(n_frames: int, mode: str = "least-loaded"):
    """The canonical failover session scaled to a run of ``n_frames``.

    A light incumbent (Doom3-L) and a heavy client (GRID) spread across
    a two-server fleet (a: 2.0, b: 1.0 client-equivalents) under
    least-loaded placement, so the heavy client lands alone on ``b`` —
    which fails mid-session.  ``mode`` selects what happens next:
    ``"least-loaded"`` migrates the displaced client onto ``a``;
    ``"requeue"`` parks it at the starvation share behind the incumbent.
    """
    from repro.sim.fleet import RenderFleet, ServerFail
    from repro.sim.session import ClientSpec, Session

    if mode not in FAILOVER_MODES:
        raise ValueError(
            f"unknown failover mode {mode!r}; known: {FAILOVER_MODES}"
        )
    fleet = RenderFleet.from_capacities(
        {"a": 2.0, "b": 1.0},
        placement="least-loaded",
        migration="migrate" if mode == "least-loaded" else "requeue",
    )
    duration_ms = n_frames * constants.FRAME_BUDGET_MS
    return Session(
        clients=(ClientSpec("Doom3-L"), ClientSpec("GRID")),
        events=(ServerFail(_FAILOVER_FAIL_FRACTION * duration_ms, "b"),),
        fleet=fleet,
    )


def failover_recovery(
    n_frames: int = 240,
    seed: int = 0,
    modes: tuple[str, ...] = FAILOVER_MODES,
    engine: BatchEngine | None = None,
) -> list[FailoverRow]:
    """Compare failover modes on one fleet session with a mid-run failure.

    Plans the same capacity timeline (``ServerFail`` on the heavy
    client's server) under each mode, executes every timeline's specs
    through one batch, and reports each client's whole-run FPS plus its
    p99 tail inside the failure window — displaced clients are the rows
    whose placement history moved (or parked).  Windows too starved to
    measure a tail report 0 (the re-queue baseline's signature).
    """
    from repro.sim.session import SessionResult

    duration_ms = n_frames * constants.FRAME_BUDGET_MS
    window_start = _FAILOVER_FAIL_FRACTION * duration_ms
    window_end = window_start + _FAILOVER_WINDOW_FRACTION * duration_ms
    timelines = {
        mode: default_failover_session(n_frames, mode).timeline(
            n_frames=n_frames, seed=seed
        )
        for mode in modes
    }
    chosen = engine if engine is not None else default_engine()
    batch = chosen.run_specs(
        [spec for tl in timelines.values() for spec in tl.specs]
    )
    rows: list[FailoverRow] = []
    for mode, timeline in timelines.items():
        result = SessionResult(
            timeline=timeline,
            per_client=tuple(batch[spec] for spec in timeline.specs),
        )
        for client in timeline.clients:
            run = result.result_for(client.index)
            if run is None:
                continue
            window = result.client_window(client.index, window_start, window_end)
            p99 = window.p99_fps if window is not None else float("nan")
            rows.append(
                FailoverRow(
                    mode=mode,
                    client=client.index,
                    app=client.spec.app,
                    role="displaced" if len(client.servers) > 1 else "incumbent",
                    servers="->".join(
                        name if name is not None else "~"
                        for _, name in client.servers
                    ),
                    migrations=client.migrations,
                    mean_fps=run.measured_fps,
                    window_p99_fps=0.0 if np.isnan(p99) else p99,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Sec. 4.3: design overhead analysis
# ---------------------------------------------------------------------------


def overhead_analysis() -> dict[str, OverheadReport]:
    """Reproduce the Sec. 4.3 McPAT overhead numbers."""
    return {"LIWC": estimate_liwc(), "UCA": estimate_uca()}


# ---------------------------------------------------------------------------
# Registry: one entry per paper figure/table (the ``repro batch`` surface)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One paper figure or table: how to run it, print it and score it.

    ``run`` regenerates the result and ``table`` renders it; ``frames``
    is the default frame count (``None``: a closed-form model);
    ``anchors`` maps each :data:`~repro.analysis.calibration.ANCHORS`
    name the result measures to the function computing it.
    """

    run: Callable[..., Any]
    table: Callable[[Any], str]
    frames: int | None = 240
    anchors: dict[str, Callable[[Any], float]] = field(default_factory=dict)

    def accepts(self, name: str) -> bool:
        """True when :attr:`run` takes a keyword argument ``name``."""
        return name in inspect.signature(self.run).parameters

    def __call__(
        self, n_frames: int | None = None, seed: int = 0,
        engine: BatchEngine | None = None, **options: Any,
    ) -> Any:
        """Run at ``n_frames`` (default :attr:`frames`) through ``engine``.

        ``seed`` and ``engine`` reach only the functions that take them;
        ``options`` (a ``platform`` or ``profile``) pass through as given.
        """
        if self.frames is not None:
            options["n_frames"] = self.frames if n_frames is None else n_frames
        for name, value in (("seed", seed), ("engine", engine)):
            if self.accepts(name):
                options[name] = value
        return self.run(**options)


def _mean(values) -> float:
    return float(np.mean(list(values)))


def _fig3_table(result: tuple[list[Fig3Row], list[Fig3Row]]) -> str:
    return format_table(
        ["design", "app", "tracking", "send", "render", "transmit", "ATW(+VD)",
         "display", "total(ms)", "FPS", "tx share"],
        [
            [design, r.app, r.tracking_ms, r.sending_ms, r.rendering_ms,
             r.transmit_ms, r.atw_ms, r.display_ms, r.total_ms, r.fps,
             r.transmit_share]
            for design, rows in zip(("local", "remote"), result)
            for r in rows
        ],
        title="Fig. 3 — local-only and remote-only latency breakdown",
    )


def _table1_table(rows: list[Table1Row]) -> str:
    return format_table(
        ["app", "f range", "avg", "min", "max", "back KB", "Tremote"],
        [
            [r.app, f"{r.f_min:.0%}-{r.f_max:.0%}", r.avg_local_ms,
             r.min_local_ms, r.max_local_ms, r.back_size_kb, r.remote_ms]
            for r in rows
        ],
        title="Table 1",
    )


def _fig12_table(rows: list[Fig12Row]) -> str:
    return format_table(
        ["app", "Static", "FFR", "DFR", "Q-VR", "SW-FPS", "Q-VR-FPS"],
        [
            [r.app, r.static_speedup, r.ffr_speedup, r.dfr_speedup,
             r.qvr_speedup, r.sw_fps, r.qvr_fps]
            for r in rows
        ],
        title="Fig. 12 — normalized performance",
    )


def _fig14_table(series: list[Fig14Series]) -> str:
    """Early balance (frames 1-9) against the steady last third of the run."""
    rows = []
    for s in series:
        steady = len(s.latency_ratios) * 2 // 3
        rows.append(
            [s.app, float(np.nanmean(s.latency_ratios[1:10])),
             float(np.nanmean(s.latency_ratios[steady:])),
             float(np.nanmean(s.fps[steady:])), s.e1_deg[-1]]
        )
    return format_table(
        ["app", "early ratio", "steady ratio", "steady FPS", "final e1"],
        rows,
        title="Fig. 14 — balancing summary (e1 initialised at 5 deg)",
    )


def _grid_table(text: Callable[[Any], object], title: str) -> Callable[[list], str]:
    """A (frequency, network) x app grid of Table 4 / Fig. 15 cells."""

    def render(cells: list) -> str:
        grid: dict[tuple[float, str], dict[str, object]] = {}
        for c in cells:
            grid.setdefault((c.frequency_mhz, c.network), {})[c.app] = text(c)
        return format_table(
            ["Freq", "Network"] + [APPS[a].short_name for a in TABLE3_ORDER],
            [
                [f"{f:.0f}", n] + [row[a] for a in TABLE3_ORDER]
                for (f, n), row in grid.items()
            ],
            title=title,
        )

    return render


def _overheads_table(reports: dict[str, OverheadReport]) -> str:
    return format_table(
        ["block", "area (mm^2)", "power (mW)"],
        [[name, r.area_mm2, r.power_mw] for name, r in reports.items()],
        title="Sec. 4.3 — overheads",
    )


def _row_table(title: str) -> Callable[[list], str]:
    """A table of dataclass rows, one column per field."""

    def render(rows: list) -> str:
        headers = [f.name for f in fields(rows[0])] if rows else ["(no rows)"]
        return format_table(
            headers, [[getattr(r, h) for h in headers] for r in rows], title=title
        )

    return render


#: Every paper figure and table, by ``repro batch`` name; the last four
#: are the dynamic-environment studies.  Fig. 3/5/6, Table 1 and the
#: overheads are closed-form models; the rest run their sweeps through
#: the engine they are given.
EXPERIMENTS: dict[str, Experiment] = {
    "fig3": Experiment(
        fig3_motivation, _fig3_table, frames=None,
        anchors={
            "remote_transmit_share": lambda result: _mean(
                r.transmit_share for r in result[1]
            ),
        },
    ),
    "table1": Experiment(table1_static_characterization, _table1_table, frames=600),
    "fig5": Experiment(
        partial(fig5_interaction_latency, "Nature", tuple(i / 10 for i in range(11))),
        lambda points: format_table(
            ["closeness", "interactive latency (ms)"], points,
            title="Fig. 5 — Nature tree latency vs interaction closeness",
        ),
        frames=None,
    ),
    "fig6": Experiment(
        fig6_foveal_sizing,
        _row_table("Fig. 6 — foveal rendering latency vs eccentricity"),
        frames=None,
    ),
    "fig12": Experiment(
        fig12_performance, _fig12_table,
        anchors={
            "qvr_avg_speedup": lambda rows: _mean(r.qvr_speedup for r in rows),
            "qvr_max_speedup": lambda rows: float(np.max([r.qvr_speedup for r in rows])),
            "ffr_avg_speedup": lambda rows: _mean(r.ffr_speedup for r in rows),
            "ffr_max_speedup": lambda rows: float(np.max([r.ffr_speedup for r in rows])),
            "static_avg_speedup": lambda rows: _mean(r.static_speedup for r in rows),
            "dfr_over_ffr": lambda rows: (
                _mean(r.dfr_speedup for r in rows) / _mean(r.ffr_speedup for r in rows)
            ),
            "qvr_fps_over_static": lambda rows: _mean(r.qvr_fps / r.static_fps for r in rows),
            "qvr_fps_over_sw": lambda rows: _mean(r.qvr_fps / r.sw_fps for r in rows),
        },
    ),
    "fig13": Experiment(
        fig13_transmission,
        _row_table("Fig. 13 — transmitted data normalised to remote-only"),
        anchors={
            "qvr_data_reduction": lambda rows: 1.0 - _mean(r.qvr_normalized for r in rows),
            "doom3l_data_reduction": lambda rows: 1.0 - next(
                r.qvr_normalized for r in rows if r.app == "Doom3-L"
            ),
            "qvr_resolution_reduction": lambda rows: _mean(
                r.resolution_reduction for r in rows
            ),
        },
    ),
    "fig14": Experiment(fig14_balancing, _fig14_table),
    "table4": Experiment(
        table4_eccentricity,
        _grid_table(
            lambda c: f"{c.mean_e1_deg:.1f}{'' if c.meets_fps else '*'}",
            "Table 4 — steady-state e1 (deg); * = misses 90 Hz",
        ),
        frames=200,
    ),
    "fig15": Experiment(
        fig15_energy,
        _grid_table(lambda c: c.normalized_energy, "Fig. 15 — normalized system energy"),
        frames=200,
        anchors={
            # The paper's default platform: 500 MHz on Wi-Fi.
            "qvr_energy_reduction": lambda cells: 1.0 - _mean(
                c.normalized_energy for c in cells
                if c.frequency_mhz == 500.0 and c.network == "Wi-Fi"
            ),
        },
    ),
    "overheads": Experiment(
        overhead_analysis, _overheads_table, frames=None,
        anchors={
            "liwc_area_mm2": lambda reports: reports["LIWC"].area_mm2,
            "liwc_power_mw": lambda reports: reports["LIWC"].power_mw,
            "uca_area_mm2": lambda reports: reports["UCA"].area_mm2,
            "uca_power_mw": lambda reports: reports["UCA"].power_mw,
            "uca_tile_cycles": lambda _: float(UCAUnit().config.cycles_per_tile),
        },
    ),
    "netdrop": Experiment(netdrop_adaptation, _row_table("Net drop — Q-VR per window")),
    "admission": Experiment(
        admission_scheduling, _row_table("Admission — per-client FPS by policy")
    ),
    "churn": Experiment(session_churn, _row_table("Churn — re-admission by policy")),
    "failover": Experiment(
        failover_recovery, _row_table("Failover — displaced-client FPS by mode")
    ),
}
