"""Single-commit timing gates of the batch, population and planner paths.

``perfbench/run.py`` compares two commits; these gates need only one.
Same-run ratios time both terms in this run, so machine speed cancels:
vector over scalar kernels, serial over cold batched and cold sharded
Fig. 12, disabled-tracing overhead, population serial over sharded, and
planner per-event cost at 300 events over 150.  Cross-machine ceilings
on Fig. 12 serial time, population serial time and planner per-event
cost absorb runner hardware but not a multi-x slowdown.  Bit-identity,
warm-cache, determinism and population-size checks are tier-1 tests.

Usage, from the repository root (no options; about 30 s)::

    PYTHONPATH=src python benchmarks/gates.py

Prints one table and exits 1 naming every failed gate.
"""

import os
import sys
import tempfile
import time
from collections import deque
from dataclasses import replace
from pathlib import Path

from repro import constants
from repro.obs import trace as obs_trace
from repro.sim.demand import DemandScenario, run_population
from repro.sim.fleet import RenderFleet, ServerDown, ServerUp
from repro.sim.runner import BatchEngine, Sweep, run
from repro.sim.session import ClientSpec, Join, Leave, Session
from repro.workloads.apps import TABLE3_ORDER

SCENARIO = Path(__file__).resolve().parents[1] / "examples" / "population.json"
FIG12_SYSTEMS = ("local", "static", "ffr", "dfr", "sw-qvr", "qvr")

#: Repetitions of the Fig. 12 warm and batched legs, of the population
#: legs and of each planner size; every gate reads the minimum.
FIG12_REPS = 3
POPULATION_REPS = 2
PLANNER_REPS = 3

#: gate -> (comparison, threshold).  A threshold is the last committed
#: one-CPU baseline with CI's tolerance (a speedup may lose 25%, a time
#: grow 50%, planner per-event cost 300%), or absolute.
GATES: dict[str, tuple[str, float]] = {
    "kernel_speedup": (">=", 7.70 * 0.75),
    "speedup_cold": (">=", 2.68 * 0.75),
    "speedup_shard_cold": (">=", 2.97 * 0.75),
    "serial_s": ("<=", 0.613 * 1.50),
    "obs_disabled_overhead": ("<=", 1.02),
    "population_shard_speedup": (">=", 0.99 * 0.75),
    "population_serial_s": ("<=", 4.588 * 1.50),
    "planner_linearity": ("<=", 1.5),
    "planner_ms_per_event": ("<=", 0.1683 * 4.0),
}


def _timed(call, *args, **kwargs) -> float:
    start = time.perf_counter()
    call(*args, **kwargs)
    return time.perf_counter() - start


def _run_all(specs) -> list:
    return [run(spec) for spec in specs]


def fig12_gates(jobs: int, shards: int) -> dict[str, float]:
    """Kernel, batched, sharded and disabled-tracing gates on Fig. 12
    (42 specs, 120 frames, seed 0)."""
    specs = Sweep(
        systems=FIG12_SYSTEMS, apps=TABLE3_ORDER, seeds=(0,), n_frames=120
    ).specs()
    scalar_s = _timed(_run_all, [replace(spec, engine="scalar") for spec in specs])
    serial_s = _timed(_run_all, specs)

    # serial_s ran with cold memos, so it cannot anchor a 2% comparison.
    # The reference re-times the warm loop before any tracer has existed
    # in this process; the untraced leg re-times it after each
    # configure/shutdown cycle.  A tracer or registry surviving shutdown
    # would show up as a ratio above 1.
    warm_s = min(_timed(_run_all, specs) for _ in range(FIG12_REPS))
    untraced_s = float("inf")
    for _ in range(FIG12_REPS):
        with tempfile.TemporaryDirectory(prefix="qvr-gates-trace-") as trace_dir:
            obs_trace.configure(trace_dir, process="gates")
            try:
                _run_all(specs)
            finally:
                obs_trace.shutdown()
        untraced_s = min(untraced_s, _timed(_run_all, specs))

    # The batched leg persists through the result cache and the sharded
    # leg through its spill stream: each starts empty and leaves the
    # store its next run would resume from.
    cold_s = shard_s = float("inf")
    for _ in range(FIG12_REPS):
        with tempfile.TemporaryDirectory(prefix="qvr-gates-") as scratch:
            cached = BatchEngine(jobs=jobs, cache_dir=Path(scratch, "cache"))
            cold_s = min(cold_s, _timed(cached.run_specs, specs))
            sharded = BatchEngine(jobs=jobs, shards=shards, shard_mode="process",
                                  stream_dir=Path(scratch, "stream"))
            shard_s = min(shard_s, _timed(sharded.run_specs, specs))

    return {
        "kernel_speedup": scalar_s / serial_s,
        "speedup_cold": serial_s / cold_s,
        "speedup_shard_cold": serial_s / shard_s,
        "serial_s": serial_s,
        "obs_disabled_overhead": untraced_s / warm_s,
    }


def population_gates(jobs: int, shards: int) -> dict[str, float]:
    """Serial time and sharded speedup of the shipped city's 120-session,
    seed-7 slice."""
    scenario = DemandScenario.from_json(str(SCENARIO))
    serial_s = shard_s = float("inf")
    for _ in range(POPULATION_REPS):
        serial = BatchEngine()
        sharded = BatchEngine(jobs=jobs, shards=shards, shard_mode="process")
        serial_s = min(serial_s, _timed(run_population, scenario, 7, serial, max_sessions=120))
        shard_s = min(shard_s, _timed(run_population, scenario, 7, sharded, max_sessions=120))
    return {
        "population_shard_speedup": serial_s / shard_s,
        "population_serial_s": serial_s,
    }


def stress_session(n_events: int, n_frames: int) -> Session:
    """A three-server fleet session carrying ``n_events`` churn events.

    Joins and leaves alternate, so the roster stays bounded and planning
    cost is down to the event count, and every fifth event toggles
    server ``c`` down or up, which displaces and re-seats clients.
    """
    events = []
    fifo: deque[int] = deque()
    next_index = 2  # the two initial clients hold indices 0 and 1
    c_down = False
    spacing = n_frames * constants.FRAME_BUDGET_MS / (n_events + 1)
    for i in range(n_events):
        t = spacing * (i + 1)
        if i % 5 == 4:
            events.append(ServerUp(t, server="c") if c_down else ServerDown(t, server="c"))
            c_down = not c_down
        elif i % 5 in (1, 3) and fifo:
            events.append(Leave(t, client=fifo.popleft()))
        else:
            events.append(Join(t, ClientSpec("Doom3-L")))
            fifo.append(next_index)
            next_index += 1
    return Session(
        clients=(ClientSpec("GRID"), ClientSpec("Doom3-L")),
        events=tuple(events),
        fleet=RenderFleet.from_capacities(
            {"a": 2.0, "b": 2.0, "c": 2.0}, placement="least-loaded"
        ),
    )


def planner_gates() -> dict[str, float]:
    """Per-event planning cost at 300 events, and its growth from 150.

    One planning epoch per event over a bounded roster makes the cost
    linear in the event count: a quadratic planner measures 2.0 here.
    """
    ms_per_event = {}
    for n_events in (150, 300):
        session = stress_session(n_events, 600)
        best_s = min(
            _timed(session.timeline, n_frames=600, seed=0)
            for _ in range(PLANNER_REPS)
        )
        ms_per_event[n_events] = 1000.0 * best_s / n_events
    return {
        "planner_linearity": ms_per_event[300] / ms_per_event[150],
        "planner_ms_per_event": ms_per_event[300],
    }


def main() -> int:
    # One worker per CPU this process may run on (its affinity mask).
    jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    shards = max(4, 2 * jobs)
    measured = {
        **fig12_gates(jobs, shards),
        **population_gates(jobs, shards),
        **planner_gates(),
    }
    print(f"{jobs} worker(s), {shards} shards\n")
    print("| gate | measured | threshold | status |")
    print("| --- | ---: | ---: | --- |")
    failed = []
    for name, (comparison, threshold) in GATES.items():
        value = measured[name]
        ok = value >= threshold if comparison == ">=" else value <= threshold
        if not ok:
            failed.append(name)
        print(f"| {name} | {value:.4f} | {comparison} {threshold:.4f} | "
              f"{'ok' if ok else 'FAILED'} |")
    if failed:
        print(f"\nFAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
