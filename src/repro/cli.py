"""Command-line interface: run any experiment from the shell.

Usage (also via ``python -m repro``)::

    python -m repro compare --app GRID --systems local qvr
    python -m repro batch --experiments fig12 table4 --jobs 4 --cache-dir .qvr-cache
    python -m repro batch --experiments fig3 table1 overheads
    python -m repro batch --profile wifi-drop --experiments fig12 netdrop
    python -m repro scenarios --clients Doom3-H:wifi GRID:wifi-drop:300
    python -m repro scenarios --clients GRID Doom3-L --events events.json \
        --capacity 2 --overflow queue
    python -m repro population examples/population.json --max-sessions 120

``batch`` regenerates paper figures and tables (the
:data:`~repro.analysis.experiments.EXPERIMENTS` registry) through one
shared :class:`~repro.sim.runner.BatchEngine`: each one's table, then,
on the paper's platform, a scorecard of the paper anchors they measure.
``scenarios`` runs a heterogeneous multi-client session (optionally
event-driven, on a fleet, or with motion-driven link switches) and
prints it through :func:`~repro.analysis.report.format_session`;
``population`` streams a city of them.  docs/cli.md documents every
command and flag; docs/reproduction.md gives one command per figure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import constants
from repro.analysis.calibration import format_scorecard
from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.report import format_session, format_table
from repro.errors import ConfigurationError
from repro.motion.traces import generate_trace
from repro.network.conditions import by_name
from repro.obs import clock as obs_clock
from repro.obs import trace as obs_trace
from repro.network.profile import PiecewiseProfile, as_profile, profile_by_name
from repro.sim.demand import DemandScenario, run_population
from repro.sim.fleet import (
    RenderFleet,
    ServerDown,
    ServerFail,
    ServerUp,
    fleet_from_payload,
)
from repro.sim.runner import (
    BatchEngine,
    ENGINE_NAMES,
    ResultCache,
    run_comparison,
    speedup_over,
)
from repro.sim.server import OVERFLOW_MODES, POLICY_NAMES, RenderServer
from repro.sim.session import (
    ClientSpec,
    Join,
    Leave,
    ProfileSwitch,
    Session,
    SessionEvent,
    events_from_motion,
    simulate_session,
)
from repro.sim.systems import PlatformConfig, SYSTEM_NAMES
from repro.workloads.apps import APPS

__all__ = ["main", "build_parser"]


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for uncached runs (default: 1, in-process)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory for the on-disk result cache (default: no cache)",
    )
    parser.add_argument(
        "--engine", default="vector", choices=list(ENGINE_NAMES),
        help="execution engine: the array-programmed frame kernels "
        "(vector, default) or the per-frame task-graph reference oracle "
        "(scalar); both produce bit-identical results",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="spec shards for the executor that runs uncached specs "
        "(default: four per job, capped at the spec count; results are "
        "bit-identical at any shard/worker count)",
    )
    parser.add_argument(
        "--stream", nargs="?", const="", default=None, metavar="DIR",
        dest="stream_dir",
        help="stream results through a spill-to-disk directory; with "
        "DIR, reusing it resumes an interrupted sweep (completed shards "
        "are skipped, partial shard files resume after their valid "
        "prefix); without DIR, nothing is kept: multi-worker runs spill "
        "through a temporary directory and in-process runs do not spill",
    )
    parser.add_argument(
        "--trace", default=None, metavar="DIR", dest="trace_dir",
        help="record spans, instants, and metric snapshots to JSONL files "
        "under DIR (one file per process); inspect with 'repro obs' — "
        "results are bit-identical with tracing on or off",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Q-VR (ASPLOS 2021) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="run designs on one title")
    compare.add_argument("--app", default="Doom3-H", choices=sorted(APPS))
    compare.add_argument(
        "--systems", nargs="+", default=["local", "static", "qvr"],
        choices=list(SYSTEM_NAMES),
    )
    compare.add_argument("--frames", type=int, default=240)
    compare.add_argument("--network", default="Wi-Fi")
    compare.add_argument("--freq", type=float, default=500.0)
    compare.add_argument("--seed", type=int, default=0)

    batch = sub.add_parser(
        "batch",
        help="regenerate paper figures and tables through one shared batch "
        "engine and score the paper anchors they measure",
    )
    batch.add_argument(
        "--experiments", nargs="+", default=sorted(EXPERIMENTS),
        choices=sorted(EXPERIMENTS),
        help="figures and tables to run (default: all)",
    )
    batch.add_argument(
        "--frames", type=int, default=None,
        help="frames per run (default: each experiment's own: 200 for table4 "
        "and fig15, 600 for table1, 240 for the other simulations)",
    )
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument(
        "--profile", default=None,
        help="network profile name (e.g. wifi-drop) or trace CSV path; "
        "applies to experiments that take a platform",
    )
    batch.add_argument(
        "--clear-cache", action="store_true",
        help="evict every on-disk cache entry before running "
        "(requires --cache-dir)",
    )
    _add_engine_options(batch)

    scenarios = sub.add_parser(
        "scenarios", help="heterogeneous multi-client shared sessions"
    )
    scenarios.add_argument(
        "--clients", nargs="+", required=True, metavar="APP[:PROFILE[:FREQ_MHZ]]",
        help="one entry per client, e.g. Doom3-H:wifi GRID:wifi-drop:300",
    )
    scenarios.add_argument(
        "--system", default="qvr", choices=list(SYSTEM_NAMES),
    )
    scenarios.add_argument("--frames", type=int, default=200)
    scenarios.add_argument("--seed", type=int, default=0)
    scenarios.add_argument("--sharing-efficiency", type=float, default=0.9)
    scenarios.add_argument(
        "--policy", default="fair-share", choices=list(POLICY_NAMES),
        help="server scheduling policy for the shared session "
        "(default: fair-share, the uniform division)",
    )
    scenarios.add_argument(
        "--events", default=None, metavar="EVENTS_JSON",
        help="JSON event timeline (join/leave/switch entries); the "
        "session re-plans admission and scheduling at every event",
    )
    scenarios.add_argument(
        "--capacity", type=float, default=None,
        help="server capacity in client-equivalents (default: one per "
        "server GPU)",
    )
    scenarios.add_argument(
        "--overflow", default=None, choices=list(OVERFLOW_MODES),
        help="what happens to demand beyond capacity: degrade (default), "
        "reject, or queue (queued clients start late when capacity frees)",
    )
    scenarios.add_argument(
        "--fleet", default=None, metavar="FLEET_JSON",
        help="JSON fleet description (named servers, placement policy, "
        "migration mode/penalty) replacing the single server; event files "
        "may then carry up/down/fail capacity entries",
    )
    scenarios.add_argument(
        "--motion-events", default=None, metavar="PROFILE",
        help="synthesize degraded-link ProfileSwitch events for client 0 "
        "from the head-motion trace: high-velocity windows roam onto this "
        "profile (a registry name or trace CSV, e.g. data/lte_4g_drive.csv) "
        "and recover afterwards",
    )
    _add_engine_options(scenarios)

    population = sub.add_parser(
        "population",
        help="expand a demand scenario into a city of sessions and stream "
        "it through the batch path",
    )
    population.add_argument(
        "scenario", metavar="SCENARIO_JSON",
        help="demand-scenario JSON file (schema: docs/demand_scenarios.md)",
    )
    population.add_argument("--seed", type=int, default=0)
    population.add_argument(
        "--policy", action="append", default=None, choices=list(POLICY_NAMES),
        help="evaluate only this scheduling policy (repeatable; must be in "
        "the scenario's policy list; default: every scenario policy)",
    )
    population.add_argument(
        "--max-sessions", type=int, default=None,
        help="cap the expansion after this many arrivals — a capped city "
        "is a strict prefix of the full one (CI smoke cells use this)",
    )
    population.add_argument(
        "--report", default=None, metavar="REPORT_JSON",
        help="write the full deterministic population report as JSON",
    )
    _add_engine_options(population)

    lint = sub.add_parser(
        "lint",
        help="static determinism & hash-integrity analysis "
        "(rules: docs/determinism.md)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="report format: human-readable text (default) or the JSON "
        "payload CI consumes (includes suppressed findings + justifications)",
    )
    lint.add_argument(
        "--config", default=None, metavar="TOML",
        help="lint config file (default: discover repro-lint.toml upward "
        "from the first PATH)",
    )

    obs = sub.add_parser(
        "obs",
        help="inspect a recorded trace directory (stage breakdown, "
        "Perfetto export, HTML timeline)",
    )
    obs.add_argument(
        "action", choices=["report"],
        help="'report' prints the stage-level latency/utilization breakdown",
    )
    obs.add_argument(
        "trace_dir", metavar="TRACE_DIR",
        help="trace directory recorded by a traced run",
    )
    obs.add_argument(
        "--html", default=None, metavar="OUT_HTML",
        help="also write a standalone HTML timeline to OUT_HTML",
    )
    obs.add_argument(
        "--chrome-trace", default=None, metavar="OUT_JSON",
        help="also write Chrome trace-event JSON to OUT_JSON "
        "(load in Perfetto or chrome://tracing)",
    )
    return parser


def _engine_from(args: argparse.Namespace) -> BatchEngine:
    stream_dir = getattr(args, "stream_dir", None)
    return BatchEngine(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        engine=args.engine,
        shards=getattr(args, "shards", None),
        stream_dir=stream_dir or None,
    )


def _cmd_compare(args: argparse.Namespace) -> None:
    platform = PlatformConfig(network=by_name(args.network)).with_gpu_frequency(args.freq)
    results = run_comparison(
        args.app, systems=tuple(args.systems), platform=platform,
        n_frames=args.frames, seed=args.seed,
    )
    rows = [
        [
            name, r.mean_latency_ms,
            f"{speedup_over(results, name, baseline=args.systems[0]):.2f}x",
            r.measured_fps, r.mean_e1_deg, r.mean_transmitted_bytes / 1e3,
        ]
        for name, r in results.items()
    ]
    print(
        format_table(
            ["design", "latency (ms)", f"vs {args.systems[0]}", "FPS", "e1", "KB/frame"],
            rows,
            title=f"{args.app} @ {args.freq:.0f} MHz, {args.network}",
        )
    )


def _cmd_batch(args: argparse.Namespace) -> None:
    if args.clear_cache:
        if args.cache_dir is None:
            raise ConfigurationError("--clear-cache requires --cache-dir")
        removed = ResultCache(args.cache_dir).clear()
        print(f"cleared {removed} cached result(s) from {args.cache_dir}")
    profile = profile_by_name(args.profile) if args.profile is not None else None
    engine = _engine_from(args)
    rows = []
    measured: dict[str, float] = {}
    # Wall-clock here times the *batch run* for the report table; results
    # come from the deterministic engine, never from these timers.
    total_start = obs_clock.perf_s()
    for name in args.experiments:
        experiment = EXPERIMENTS[name]
        options = {}
        if profile is not None:
            if experiment.accepts("profile") and isinstance(profile, PiecewiseProfile):
                options["profile"] = profile
            elif experiment.accepts("platform"):
                options["platform"] = PlatformConfig(network=profile)
            else:
                rows.append([name, "skipped (no --profile support)", "-"])
                continue
        frames = experiment.frames  # None: a closed-form model ignores --frames
        if frames is not None and args.frames is not None:
            frames = args.frames
        start = obs_clock.perf_s()
        result = experiment(frames, seed=args.seed, engine=engine, **options)
        rows.append([name, "-" if frames is None else frames,
                     f"{obs_clock.perf_s() - start:.2f}"])
        print(experiment.table(result))
        print()
        if profile is None:
            measured.update(
                (anchor, measure(result))
                for anchor, measure in experiment.anchors.items()
            )
    total_s = obs_clock.perf_s() - total_start
    print(
        format_table(
            ["experiment", "frames", "wall (s)"],
            rows,
            title=(
                f"repro batch — {len(args.experiments)} experiments, "
                f"engine={args.engine}, jobs={args.jobs}"
                + (f", profile={args.profile}" if args.profile else "")
            ),
        )
    )
    for line in _stats_lines(engine, total_s):
        print(line)
    if measured:
        print()
        print(format_scorecard(measured))


def _stats_lines(engine: BatchEngine, total_s: float) -> list[str]:
    """The ``specs:`` line and, once a batch ran sharded, the ``shards:`` line.

    Both sum over every batch the engine ran.  A plain serial engine (one
    in-process worker, no shard count, no stream) prints no shard line.
    """
    stats = engine.stats
    lines = [
        f"specs: {stats.requested} requested, {stats.unique} unique, "
        f"{stats.executed} executed, {stats.cache_hits} cache hits, "
        f"{stats.resumed} resumed, {stats.deduplicated} deduplicated in-batch; "
        f"total {total_s:.2f}s"
    ]
    sharded = engine.shards is not None or engine.stream_dir is not None
    if stats.shards and (sharded or stats.workers > 1):
        lines.append(
            f"shards: {stats.shards} planned ({stats.shard_specs} specs), "
            f"{stats.resumed_shards} resumed complete, "
            f"{stats.salvaged} frames salvaged, {stats.requeues} requeues, "
            f"{stats.workers} workers"
        )
    return lines


def _parse_client(token: str, base_dir: str | None = None) -> ClientSpec:
    """Parse one ``APP[:PROFILE[:FREQ_MHZ]]`` client description.

    A relative trace-CSV ``PROFILE`` reads against ``base_dir`` when one
    is given (an events file's directory), else the working directory.
    """
    parts = token.split(":")
    if len(parts) > 3 or not parts[0]:
        raise ConfigurationError(
            f"bad client spec {token!r}; expected APP[:PROFILE[:FREQ_MHZ]]"
        )
    app = parts[0]
    if app not in APPS:
        raise ConfigurationError(f"unknown app {app!r}; known: {sorted(APPS)}")
    profile = (
        profile_by_name(parts[1], base_dir) if len(parts) >= 2 and parts[1] else None
    )
    platform = None
    if len(parts) == 3 and parts[2]:
        try:
            frequency_mhz = float(parts[2])
        except ValueError:
            raise ConfigurationError(
                f"bad frequency {parts[2]!r} in client spec {token!r}"
            ) from None
        platform = PlatformConfig().with_gpu_frequency(frequency_mhz)
    return ClientSpec(app=app, platform=platform, profile=profile)


def _parse_events(path: str) -> tuple[SessionEvent, ...]:
    """Load a JSON event timeline for ``repro scenarios --events``.

    Accepts a top-level list (or a ``{"events": [...]}`` wrapper) of
    entries carrying ``t_ms`` plus exactly one of:

    * ``"join": "APP[:PROFILE[:FREQ_MHZ]]"`` — a new client arrives;
    * ``"leave": INDEX`` — session client INDEX departs;
    * ``"switch": INDEX, "profile": NAME`` — client INDEX roams onto
      another link profile (or trace CSV path);
    * ``"up": SERVER`` / ``"down": SERVER`` / ``"fail": SERVER`` — fleet
      capacity events (require ``--fleet``); ``down`` takes an optional
      ``"drain": false`` to skip the graceful migration.

    A relative trace-CSV path in a ``join`` or ``switch`` entry reads
    against the events file's directory, as scenario files do.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as error:
        raise ConfigurationError(f"cannot read events file {path!r}: {error}") from None
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"invalid JSON in {path!r}: {error}") from None
    if isinstance(payload, dict):
        payload = payload.get("events")
    if not isinstance(payload, list):
        raise ConfigurationError(
            f"{path!r} must hold a JSON list of events "
            '(or {"events": [...]})'
        )
    base_dir = os.path.dirname(path)
    events: list[SessionEvent] = []
    for entry in payload:
        if not isinstance(entry, dict) or "t_ms" not in entry:
            raise ConfigurationError(f"bad event entry in {path!r}: {entry}")
        try:
            t_ms = float(entry["t_ms"])
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"bad t_ms {entry['t_ms']!r} in {path!r}: {entry}"
            ) from None
        kinds = [
            k for k in ("join", "leave", "switch", "up", "down", "fail")
            if k in entry
        ]
        if len(kinds) != 1:
            raise ConfigurationError(
                f"event at {t_ms:g} ms in {path!r} needs exactly one of "
                f"join/leave/switch/up/down/fail, got {sorted(entry)}"
            )
        if kinds[0] == "join":
            events.append(Join(t_ms, _parse_client(str(entry["join"]), base_dir)))
        elif kinds[0] == "leave":
            events.append(Leave(t_ms, client=_event_index(entry, "leave", path)))
        elif kinds[0] == "switch":
            if "profile" not in entry:
                raise ConfigurationError(
                    f"switch event at {t_ms:g} ms in {path!r} needs a "
                    '"profile"'
                )
            events.append(
                ProfileSwitch(
                    t_ms,
                    client=_event_index(entry, "switch", path),
                    profile=profile_by_name(str(entry["profile"]), base_dir),
                )
            )
        elif kinds[0] == "up":
            events.append(ServerUp(t_ms, server=str(entry["up"])))
        elif kinds[0] == "down":
            events.append(
                ServerDown(
                    t_ms,
                    server=str(entry["down"]),
                    drain=bool(entry.get("drain", True)),
                )
            )
        else:
            events.append(ServerFail(t_ms, server=str(entry["fail"])))
    return tuple(events)


def _parse_fleet(path: str) -> RenderFleet:
    """Load a JSON fleet description for ``repro scenarios --fleet``.

    Schema::

        {"servers": {"a": 2.0, "b": {"capacity": 1.0}},
         "placement": "least-loaded",      # optional
         "migration": "migrate",           # optional: migrate | requeue
         "migration_penalty_ms": 120.0,    # optional
         "initial": ["a"],                 # optional: names up at t = 0
         "overflow": "queue"}              # optional: queue | reject | degrade

    Server values are a bare capacity (client-equivalents) or an object
    with a ``"capacity"`` key.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as error:
        raise ConfigurationError(f"cannot read fleet file {path!r}: {error}") from None
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"invalid JSON in {path!r}: {error}") from None
    return fleet_from_payload(payload, source=repr(path))


def _event_index(entry: dict, key: str, path: str) -> int:
    """The client index of a leave/switch entry, validated."""
    try:
        return int(entry[key])
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"bad client index {entry[key]!r} for {key!r} in {path!r}: {entry}"
        ) from None


def _server_from(args: argparse.Namespace) -> RenderServer | None:
    if args.capacity is None and args.overflow is None:
        return None
    return RenderServer(
        capacity_clients=args.capacity,
        overflow=args.overflow if args.overflow is not None else "degrade",
    )


def _motion_events(
    args: argparse.Namespace, clients: tuple[ClientSpec, ...]
) -> tuple[SessionEvent, ...]:
    """Synthesize client-0 ProfileSwitch events from the motion trace.

    Recovery switches back onto client 0's *declared* link (its profile
    override, or the session default) — a client on 4G roams back to 4G,
    not onto the default Wi-Fi.
    """
    trace = generate_trace(
        args.frames, constants.FRAME_BUDGET_MS, 1920, 2160, seed=args.seed
    )
    baseline = clients[0].resolved_platform(PlatformConfig()).network
    return events_from_motion(
        trace,
        degraded=profile_by_name(args.motion_events),
        recovered=as_profile(baseline),
    )


def _cmd_scenarios(args: argparse.Namespace) -> None:
    clients = tuple(_parse_client(token) for token in args.clients)
    fleet = _parse_fleet(args.fleet) if args.fleet is not None else None
    if fleet is not None and (args.capacity is not None or args.overflow is not None):
        raise ConfigurationError(
            "--fleet already describes the servers; --capacity/--overflow "
            "apply only to the single-server session"
        )
    events: tuple[SessionEvent, ...] = ()
    if args.events is not None:
        events += _parse_events(args.events)
    if args.motion_events is not None:
        events += _motion_events(args, clients)
    session = Session(
        clients=clients,
        events=events,
        sharing_efficiency=args.sharing_efficiency,
        policy=args.policy,
        server=_server_from(args) if fleet is None else None,
        fleet=fleet,
    )
    result = simulate_session(
        session,
        n_frames=args.frames,
        seed=args.seed,
        system=args.system,
        engine=_engine_from(args),
    )
    print(format_session(result, f"{args.system}, {args.engine} engine"))


def _cmd_population(args: argparse.Namespace) -> None:
    scenario = DemandScenario.from_json(args.scenario)
    engine = _engine_from(args)

    tracer = obs_trace.active()

    def progress(policy: str, done: int, total: int) -> None:
        if done % 1000 != 0 and done != total:
            return
        message = f"{policy}: {done}/{total} client-sessions"
        if tracer.enabled:
            tracer.instant("population.progress", policy=policy, done=done,
                           total=total, message=message)
        else:
            print(f"  {message}", file=sys.stderr)

    # Wall-clock times the CLI invocation for the stderr footer; the
    # population report itself is bit-deterministic in (scenario, seed).
    start = obs_clock.perf_s()
    report = run_population(
        scenario,
        seed=args.seed,
        engine=engine,
        policies=tuple(args.policy) if args.policy else None,
        max_sessions=args.max_sessions,
        progress=progress,
    )
    wall = obs_clock.perf_s() - start
    rows = []
    for policy, r in report["policies"].items():
        slo = r["slo"]
        attainment = (
            "-"
            if slo["measured"] == 0
            else f"{100.0 * slo['met'] / slo['measured']:.1f}%"
        )
        rows.append(
            [
                policy,
                r["clients"],
                r["client_sessions"],
                r["executed"],
                f"{r['latency_ms']['p99']:.2f}",
                f"{r['fps']['mean']:.1f}",
                f"{r['client_p99_fps']['p50']:.1f}",
                f"{slo['met']}/{slo['measured']}",
                attainment,
            ]
        )
    print(
        format_table(
            [
                "policy", "clients", "client-sessions", "executed",
                "p99 latency (ms)", "mean FPS", "median client p99",
                "SLO met", "attainment",
            ],
            rows,
            title=(
                f"repro population — {report['scenario']}: "
                f"{report['sessions']} sessions, {report['clients']} clients, "
                f"seed {report['seed']}, system {report['system']}, "
                f"p99-FPS floor {report['slo_p99_fps_floor']:g}"
            ),
        )
    )
    if args.report is not None:
        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.report}", file=sys.stderr)
    for line in _stats_lines(engine, wall):
        print(line, file=sys.stderr)


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import report as obs_report

    if not os.path.isdir(args.trace_dir):
        raise ConfigurationError(f"{args.trace_dir!r} is not a trace directory")
    print(obs_report.render_report(args.trace_dir))
    if args.chrome_trace is not None:
        count = obs_report.export_chrome_trace(args.trace_dir, args.chrome_trace)
        print(f"chrome trace ({count} events) written to {args.chrome_trace}",
              file=sys.stderr)
    if args.html is not None:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(obs_report.render_html(args.trace_dir))
        print(f"HTML timeline written to {args.html}", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static determinism analyzer; exit 1 on unsuppressed findings."""
    from repro.lint import lint_paths, render_json, render_text

    result = lint_paths(args.paths, config=args.config)
    if args.format == "json":
        sys.stdout.write(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


_COMMANDS = {
    "compare": _cmd_compare,
    "batch": _cmd_batch,
    "scenarios": _cmd_scenarios,
    "population": _cmd_population,
    "obs": _cmd_obs,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    trace_dir = None if args.command == "obs" else getattr(args, "trace_dir", None)
    if trace_dir is not None:
        obs_trace.configure(trace_dir, process="parent")
    try:
        code = _COMMANDS[args.command](args)
    finally:
        if trace_dir is not None:
            obs_trace.shutdown()
    return code if isinstance(code, int) else 0
