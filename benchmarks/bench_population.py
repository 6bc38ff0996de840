"""Population demand benchmark: plan and stream a city slice, gated.

Expands a slice of the shipped ``examples/population.json`` demand
scenario (``--max-sessions`` arrivals of the full diurnal day) and times
the two phases the population path is made of:

* **plan** — ``DemandScenario.expand`` plus per-session timeline
  planning: arrival thinning, party/app/link sampling, churn-event
  expansion, fleet placement.  Reported as ``plan_s`` and
  ``specs_per_s``;
* **execute** — ``run_population`` folding every client-session through
  the batch path, once serially (in-process) and once on
  process-pool shards
  (``population_serial_s`` vs ``population_shard_s``;
  ``speedup_population_shard`` is their same-run ratio, so machine
  speed cancels and the gate tracks executor overhead).

The functional check is the population path's core promise: the serial
and sharded runs must produce **bit-identical reports** (compared by
SHA-256 of the canonical JSON), which only holds because every streamed
aggregate is order-independent.  ``deterministic`` records the verdict
and the regression gate fails on ``false``.

Writes a ``BENCH_population.json`` artifact;
``benchmarks/check_bench_regression.py --population-baseline/-fresh``
gates it against the committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_population.py --max-sessions 120
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from repro.sim.demand import DemandScenario, run_population
from repro.sim.runner import BatchEngine

REPO = Path(__file__).resolve().parents[1]
SCENARIO = REPO / "examples" / "population.json"


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        return counter() or 1
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without an affinity API
        return os.cpu_count() or 1


def _digest(report: dict) -> str:
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()


def bench(
    max_sessions: int, seed: int, jobs: int, shards: int, reps: int
) -> dict:
    """Time planning and execution of one city slice, both engines."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    scenario = DemandScenario.from_json(str(SCENARIO))

    start = time.perf_counter()
    planned = scenario.expand(seed, max_sessions=max_sessions)
    specs = 0
    clients = 0
    for item in planned:
        timeline = item.session.timeline(
            system=scenario.system, n_frames=item.n_frames, seed=item.seed
        )
        specs += len(timeline.specs)
        clients += len(timeline.clients)
    plan_s = time.perf_counter() - start
    client_sessions = specs * len(scenario.policies)

    serial_s = shard_s = float("inf")
    serial_report = shard_report = None
    for _ in range(reps):
        engine = BatchEngine()
        start = time.perf_counter()
        serial_report = run_population(
            scenario, seed=seed, engine=engine, max_sessions=max_sessions
        )
        serial_s = min(serial_s, time.perf_counter() - start)

        engine = BatchEngine(jobs=jobs, shards=shards, shard_mode="process")
        start = time.perf_counter()
        shard_report = run_population(
            scenario, seed=seed, engine=engine, max_sessions=max_sessions
        )
        shard_s = min(shard_s, time.perf_counter() - start)

    serial_digest = _digest(serial_report)
    deterministic = serial_digest == _digest(shard_report)
    return {
        "scenario": {
            "path": str(SCENARIO.relative_to(REPO)),
            "name": scenario.name,
            "max_sessions": max_sessions,
            "seed": seed,
            "policies": list(scenario.policies),
        },
        "jobs": jobs,
        "shards": shards,
        "reps": reps,
        "cpu_count": os.cpu_count(),
        "available_cpus": available_cpus(),
        "sessions": len(planned),
        "clients": clients,
        "client_sessions": client_sessions,
        "plan_s": round(plan_s, 3),
        "specs_per_s": round(client_sessions / plan_s, 1),
        "population_serial_s": round(serial_s, 3),
        "population_shard_s": round(shard_s, 3),
        "speedup_population_shard": round(serial_s / shard_s, 2),
        "report_digest": serial_digest,
        "deterministic": deterministic,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-sessions", type=int, default=120,
        help="arrivals of the full city-day to expand (default: 120)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the sharded leg (default: available CPUs)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="shard count for the sharded leg (default: max(4, 2 * jobs))",
    )
    parser.add_argument(
        "--reps", type=int, default=2,
        help="repetitions of the execution legs; the minimum is reported",
    )
    parser.add_argument("--out", default="BENCH_population.json")
    args = parser.parse_args(argv)

    jobs = args.jobs if args.jobs is not None else available_cpus()
    shards = args.shards if args.shards is not None else max(4, 2 * jobs)
    report = bench(
        max_sessions=args.max_sessions,
        seed=args.seed,
        jobs=jobs,
        shards=shards,
        reps=args.reps,
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if not report["deterministic"]:
        print(
            "ERROR: serial and sharded population reports diverged",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
