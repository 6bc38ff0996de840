"""Per-layer attribution from outside the program.

:func:`traced_entry_points` turns on ``repro.obs`` tracing into a
directory and wraps each layer's public entry point in a span emitted
from this file.  :func:`analyse` reads the merged per-process streams
back, pairs every span with its parent through the ``parent`` links, and
reports inclusive and self time per layer, call counts, memo hit rates
and how much of the workload's wall time named layers cover.

A layer's self time is its spans' durations minus the part of each
interval that its child spans cover.  Spans are paired by process and
ID, so the deterministic IDs that repeat across worker processes never
cross-link.  A layer's inclusive time counts only its outermost spans,
so a layer that calls itself (profiles sampling their base profile) is
not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import multiprocessing.util
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.sinks import merge_trace_dir

ROOT_SPAN = "bench.workload"

#: Span name -> layer.  ``bench.*`` spans are emitted by the wrappers
#: below; the rest are the program's own spans.
LAYER_OF = {
    "bench.demand.expand": "demand.expand",
    "bench.session.timeline": "session.timeline",
    "session.plan": "session.timeline",
    "bench.server.allocate": "server.allocate",
    "bench.profile.sampler": "profile.sampler",
    "bench.workloads.generate": "workloads.generate",
    "bench.kernels.run_vectorized": "kernels.run",
    "kernels.run": "kernels.run",
    "kernels.workloads": "kernels.workloads",
    "kernels.frame_pass": "kernels.frame_pass",
    "kernels.records": "kernels.records",
    "bench.metrics.fold_into": "metrics.fold",
    "bench.batch.run_specs": "runner",
    "batch.run_specs": "runner",
    "bench.batch.stream_specs": "runner",
    "shard.execute": "shard.execute",
    "bench.population.run_population": "population",
    "population.policy": "population",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

#: Per-layer call counts: metric -> the wrapper span counted.
CALLS = {
    "session.timeline_calls": "bench.session.timeline",
    "server.allocate_calls": "bench.server.allocate",
    "profile.sampler_calls": "bench.profile.sampler",
    "workloads.generate_calls": "bench.workloads.generate",
    "metrics.fold_calls": "bench.metrics.fold_into",
}

#: Memo hit rates: metric -> the ``repro.obs`` counter prefix.
HIT_RATES = {
    "kernels.workloads.hit_rate": "kernels.workloads",
    "kernels.fov.hit_rate": "kernels.fov",
    "kernels.render_cache.hit_rate": "kernels.render_cache",
}

SESSIONS_COUNTER = "bench.demand.sessions"
SPEC_SPAN = "bench.kernels.run_vectorized"


def _per_layer() -> dict[str, str]:
    names: dict[str, str] = {}
    for layer in LAYERS:
        names[f"{layer}_s"] = "s"
        names[f"{layer}_self_s"] = "s"
    names["demand.sessions"] = "count"
    names.update({metric: "count" for metric in CALLS})
    names["session.ms_per_plan"] = "ms"
    names.update({metric: "ratio" for metric in HIT_RATES})
    names["runner.spec_ms_p50"] = "ms"
    names["runner.spec_ms_p90"] = "ms"
    names["runner.spec_samples"] = "count"
    names["shard.busy_frac"] = "ratio"
    names["shard.steals"] = "count"
    names["shard.requeues"] = "count"
    names["obs.coverage"] = "ratio"
    names["obs.trace_overhead"] = "ratio"
    return names


#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER = _per_layer()


# -- wrappers -----------------------------------------------------------------


def _spanned(function, span_name: str):
    if inspect.isgeneratorfunction(function):

        @functools.wraps(function)
        def traced_generator(*args, **kwargs):
            with obs_trace.active().span(span_name):
                yield from function(*args, **kwargs)

        return traced_generator

    @functools.wraps(function)
    def traced(*args, **kwargs):
        with obs_trace.active().span(span_name):
            return function(*args, **kwargs)

    return traced


def _count_sessions(function):
    @functools.wraps(function)
    def counted(*args, **kwargs):
        planned = function(*args, **kwargs)
        obs_metrics.counter(SESSIONS_COUNTER).inc(len(planned))
        return planned

    return counted


class _WorkerFlush:
    """Flush a pool worker's trace when it exits.

    Pool workers leave through ``os._exit``, which skips ``atexit`` and
    with it the worker's metrics snapshot.  ``multiprocessing`` runs its
    own finalizers first, so one registered there keeps the counters.
    """

    def __init__(self) -> None:
        self.parent = os.getpid()
        self.registered: set[int] = set()

    def __call__(self, function):
        @functools.wraps(function)
        def flushed(*args, **kwargs):
            pid = os.getpid()
            if pid != self.parent and pid not in self.registered:
                self.registered.add(pid)
                multiprocessing.util.Finalize(
                    None, obs_trace.shutdown, exitpriority=0
                )
            return function(*args, **kwargs)

        return flushed


def _subclasses(cls) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _entry_points() -> list[tuple[object, str, list]]:
    """(owner, attribute, decorators) for every wrapped entry point."""
    from repro.network.profile import NetworkProfile
    from repro.sim import demand, kernels
    from repro.sim.demand import DemandScenario
    from repro.sim.metrics import SimulationResult
    from repro.sim.runner import BatchEngine
    from repro.sim.server import RenderServer
    from repro.sim.session import Session
    from repro.workloads.generator import WorkloadGenerator

    def spanned(name: str):
        return lambda function: _spanned(function, name)

    points = [
        (DemandScenario, "expand",
         [_count_sessions, spanned("bench.demand.expand")]),
        (Session, "timeline", [spanned("bench.session.timeline")]),
        (RenderServer, "allocate", [spanned("bench.server.allocate")]),
        (WorkloadGenerator, "generate", [spanned("bench.workloads.generate")]),
        (kernels, "run_vectorized",
         [spanned(SPEC_SPAN), _WorkerFlush()]),
        (SimulationResult, "fold_into", [spanned("bench.metrics.fold_into")]),
        (BatchEngine, "run_specs", [spanned("bench.batch.run_specs")]),
        (BatchEngine, "stream_specs", [spanned("bench.batch.stream_specs")]),
        (demand, "run_population",
         [spanned("bench.population.run_population")]),
    ]
    points.extend(
        (profile, "sampler", [spanned("bench.profile.sampler")])
        for profile in _subclasses(NetworkProfile)
        if "sampler" in vars(profile)
    )
    return points


@contextlib.contextmanager
def traced_entry_points(trace_dir: str | os.PathLike) -> Iterator[None]:
    """Trace into ``trace_dir`` with every entry point wrapped in a span.

    The wrappers are installed on the classes and modules themselves, so
    forked pool workers inherit them; the originals are restored and the
    trace flushed on exit.
    """
    saved = []
    try:
        for owner, attribute, decorators in _entry_points():
            original = vars(owner)[attribute]
            wrapped = original
            for decorate in decorators:
                wrapped = decorate(wrapped)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)
        obs_trace.configure(trace_dir, process="parent")
        yield
    finally:
        obs_trace.shutdown()
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def root_span():
    """The span around the timed workload call (free when untraced)."""
    return obs_trace.active().span(ROOT_SPAN)


# -- analysis -----------------------------------------------------------------


@dataclass(eq=False)
class Span:
    """One paired span of a merged trace."""

    proc: str
    name: str
    start: float
    end: float = float("nan")
    parent: "Span | None" = None
    children: list["Span"] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        return not math.isnan(self.end)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def self_time(self) -> float:
        """Duration minus the union of the children's clipped intervals."""
        covered = 0.0
        cursor = self.start
        for child in sorted(
            (c for c in self.children if c.closed), key=lambda c: c.start
        ):
            lo = max(child.start, cursor)
            hi = min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return max(0.0, self.duration - covered)

    def has_ancestor_in(self, layer: str) -> bool:
        node = self.parent
        while node is not None:
            if LAYER_OF.get(node.name) == layer:
                return True
            node = node.parent
        return False


def pair_spans(events: list[dict]) -> list[Span]:
    """Closed spans of a merged event list, linked to their parents.

    Events must be in per-process order, as :func:`merge_trace_dir`
    returns them.  A begin's ``parent`` names the innermost open span of
    the same process with that ID.
    """
    open_spans: dict[tuple[str, str], list[Span]] = {}
    spans: list[Span] = []
    for event in events:
        kind = event.get("kind")
        proc = event.get("proc", "")
        if kind == "span_begin":
            parent = None
            parent_id = event.get("parent")
            if parent_id is not None:
                stack = open_spans.get((proc, parent_id))
                parent = stack[-1] if stack else None
            span = Span(proc, event["name"], float(event["ts_s"]), parent=parent)
            if parent is not None:
                parent.children.append(span)
            open_spans.setdefault((proc, event["id"]), []).append(span)
            spans.append(span)
        elif kind == "span_end":
            stack = open_spans.get((proc, event["id"]))
            if stack:
                stack.pop().end = float(event["ts_s"])
    return [span for span in spans if span.closed]


def _peak_workers(spans: list[Span]) -> int:
    """Most processes active at once, each active from its first to last span.

    Every policy pass starts a fresh pool, so counting distinct
    processes would count each pass's workers again.
    """
    active: dict[str, list[float]] = {}
    for span in spans:
        window = active.setdefault(span.proc, [span.start, span.end])
        window[0] = min(window[0], span.start)
        window[1] = max(window[1], span.end)
    edges = sorted(
        [(lo, 1) for lo, _ in active.values()] + [(hi, -1) for _, hi in active.values()]
    )
    peak = running = 0
    for _, step in edges:
        running += step
        peak = max(peak, running)
    return peak


def layer_metrics(events: list[dict], counters: dict[str, int]) -> dict[str, float]:
    """The per-layer block of one traced rep (all but trace overhead)."""
    spans = pair_spans(events)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if LAYER_OF.get(s.name) == layer]
        metrics[f"{layer}_s"] = sum(
            s.duration for s in mine if not s.has_ancestor_in(layer)
        )
        metrics[f"{layer}_self_s"] = sum(s.self_time for s in mine)
    names = [s.name for s in spans]
    metrics["demand.sessions"] = counters.get(SESSIONS_COUNTER, 0)
    for metric, span_name in CALLS.items():
        metrics[metric] = names.count(span_name)
    plans = metrics["session.timeline_calls"]
    metrics["session.ms_per_plan"] = (
        1e3 * metrics["session.timeline_s"] / plans if plans else 0.0
    )
    for metric, prefix in HIT_RATES.items():
        hits = counters.get(f"{prefix}.hit", 0)
        lookups = hits + counters.get(f"{prefix}.miss", 0)
        metrics[metric] = hits / lookups if lookups else 0.0
    spec_ms = [1e3 * s.duration for s in spans if s.name == SPEC_SPAN]
    metrics["runner.spec_ms_p50"] = statistics.median(spec_ms) if spec_ms else 0.0
    metrics["runner.spec_ms_p90"] = (
        statistics.quantiles(spec_ms, n=10, method="inclusive")[-1]
        if len(spec_ms) > 1 else metrics["runner.spec_ms_p50"]
    )
    metrics["runner.spec_samples"] = len(spec_ms)

    roots = [s for s in spans if s.name == ROOT_SPAN]
    wall = sum(s.duration for s in roots)
    workers = _peak_workers([s for s in spans if s.name == "shard.execute"])
    metrics["shard.busy_frac"] = (
        metrics["shard.execute_s"] / (workers * wall) if workers and wall else 0.0
    )
    metrics["shard.steals"] = sum(
        1 for e in events if e.get("kind") == "instant" and e["name"] == "shard.steal"
    )
    metrics["shard.requeues"] = sum(
        1 for e in events if e.get("kind") == "instant" and e["name"] == "shard.requeue"
    )
    metrics["obs.coverage"] = (
        (wall - sum(s.self_time for s in roots)) / wall if wall else 0.0
    )
    return metrics


def analyse(trace_dir: str | os.PathLike) -> dict[str, float]:
    """Read a trace directory back into the per-layer block."""
    events, snapshots = merge_trace_dir(Path(trace_dir))
    counters = obs_metrics.merge_snapshots(snapshots)["counters"]
    return layer_metrics(events, counters)
