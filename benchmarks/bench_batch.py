"""Batch-engine timing smoke benchmark: serial vs parallel vs warm cache.

Runs one multi-point figure sweep (the Fig. 12 grid: six system designs
across the Table 3 titles) four ways and writes a ``BENCH_batch.json``
timing artifact:

* ``scalar_serial_s`` — one spec at a time on the scalar task-graph
  oracle (the original per-frame execution model);
* ``serial_s`` — one spec at a time on the requested ``--engine``
  (default: the vectorized frame kernels);
* ``parallel_cold_s`` — the batch engine at ``--jobs`` workers (its
  derived shard count, spilled through a temporary stream) with a cold
  on-disk cache;
* ``shard_cold_s`` — the batch engine at ``--shards`` shards, process
  mode, with a cold cache and a configured spill-to-disk stream;
* ``parallel_warm_s`` — the ``--jobs`` engine invoked again, so every
  spec is answered by the cache;
* ``serial_warm_s`` / ``obs_untraced_s`` / ``obs_traced_s`` — the
  serial sweep re-timed min-of-reps with warm memo caches: before any
  tracer exists, after configure/shutdown cycles (disabled again), and
  with tracing active into a throwaway directory
  (``docs/observability.md``).

``kernel_speedup`` is ``scalar_serial_s`` over ``serial_s`` — the
per-spec win of the array-programmed kernels, measured in the same
process on the same machine (the ratio the regression gate tracks).
``speedup`` is ``serial_s`` over the best batched time.
``obs_disabled_overhead`` is ``obs_untraced_s`` over ``serial_warm_s``
— a ratio of two identical warm code paths in the same run, so it sits
at ~1.0 unless disabled instrumentation stops being free (a leaked
tracer or registry surviving shutdown); the regression gate holds it
under ``--max-obs-overhead``.  ``obs_trace_overhead`` (traced over
untraced) is the recording cost of an *enabled* tracer, reported as
information.

Worker sizing is honest: ``--jobs`` defaults to the CPUs *available to
this process* (the scheduler affinity mask, not the machine's nominal
core count), and both numbers are recorded so a reader can tell a
single-core container's ~1x "parallel" result from a real multi-core
win.  The script also verifies that scalar, serial, parallel, and
sharded results are all bit-identical.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py --frames 120
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.obs import trace as obs_trace
from repro.sim.runner import BatchEngine, ENGINE_NAMES, Sweep, run
from repro.workloads.apps import TABLE3_ORDER

#: The Fig. 12 design spectrum — the sweep every machine can complete fast.
SYSTEMS = ("local", "static", "ffr", "dfr", "sw-qvr", "qvr")


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; a container or a ``taskset``
    launch can pin the process to far fewer.  Sizing workers off the
    machine count then just multiplies scheduling overhead — the bug this
    helper exists to prevent.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        return counter() or 1
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without an affinity API
        return os.cpu_count() or 1


def bench(
    jobs: int,
    n_frames: int,
    seed: int,
    engine: str = "vector",
    shards: int | None = None,
    reps: int = 3,
) -> dict:
    """Time the execution modes over one Fig. 12-style sweep.

    The serial legs dominate wall-clock and are timed once; the batched
    legs finish in a fraction of that time, so a single sample of each is
    mostly scheduler noise.  Those legs repeat ``reps`` times (a fresh
    cache/stream directory per repetition, so every "cold" run really is
    cold) and report the minimum — the standard microbenchmark estimator
    for the cost the code actually imposes.
    """
    if shards is None:
        shards = max(4, 2 * jobs)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    sweep = Sweep(
        systems=SYSTEMS,
        apps=TABLE3_ORDER,
        seeds=(seed,),
        n_frames=n_frames,
        engine=engine,
    )
    specs = sweep.specs()

    start = time.perf_counter()
    scalar = [run(replace(spec, engine="scalar")) for spec in specs]
    scalar_serial_s = time.perf_counter() - start

    start = time.perf_counter()
    serial = [run(spec) for spec in specs]
    serial_s = time.perf_counter() - start

    # Observability legs.  serial_s above ran with cold module-level
    # memo caches (workloads, foveation plans), so it cannot anchor a
    # 2%-level comparison; serial_warm_s re-times the identical loop
    # min-of-reps with those caches warm and *no tracer ever configured
    # in this process* — the virgin disabled path.  The traced leg then
    # records into a throwaway directory, and the untraced leg re-times
    # the plain loop after each configure/shutdown cycle: the
    # untraced/warm ratio gates that tracing leaves no residue behind
    # (a leaked tracer or registry would show up as JSONL writes or
    # live-instrument updates in a leg that must be free).
    serial_warm_s = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        warm_serial = [run(spec) for spec in specs]
        serial_warm_s = min(serial_warm_s, time.perf_counter() - start)

    obs_untraced_s = obs_traced_s = float("inf")
    for _ in range(reps):
        with tempfile.TemporaryDirectory(prefix="qvr-bench-trace-") as trace_dir:
            obs_trace.configure(trace_dir, process="bench")
            try:
                start = time.perf_counter()
                traced = [run(spec) for spec in specs]
                obs_traced_s = min(obs_traced_s, time.perf_counter() - start)
            finally:
                obs_trace.shutdown()
        start = time.perf_counter()
        untraced = [run(spec) for spec in specs]
        obs_untraced_s = min(obs_untraced_s, time.perf_counter() - start)

    parallel_cold_s = parallel_warm_s = shard_cold_s = float("inf")
    for _ in range(reps):
        with tempfile.TemporaryDirectory(prefix="qvr-bench-cache-") as cache_dir:
            cold_engine = BatchEngine(jobs=jobs, cache_dir=cache_dir)
            start = time.perf_counter()
            cold = cold_engine.run_specs(specs)
            parallel_cold_s = min(parallel_cold_s, time.perf_counter() - start)

            warm_engine = BatchEngine(jobs=jobs, cache_dir=cache_dir)
            start = time.perf_counter()
            warm = warm_engine.run_specs(specs)
            parallel_warm_s = min(parallel_warm_s, time.perf_counter() - start)
            warm_hits = warm_engine.stats.cache_hits

        # The sharded leg persists through its spill stream, not the
        # result cache — writing both would double-serialize every result
        # and time an artifact no sharded deployment produces.  Cold-for-
        # cold the two legs are symmetric: each starts empty and leaves a
        # store the next run could resume from (the cache for the
        # parallel leg, the stream for the sharded one).
        with tempfile.TemporaryDirectory(prefix="qvr-bench-shards-") as stream_dir:
            shard_engine = BatchEngine(
                jobs=jobs, shards=shards, shard_mode="process", stream_dir=stream_dir
            )
            start = time.perf_counter()
            sharded = shard_engine.run_specs(specs)
            shard_cold_s = min(shard_cold_s, time.perf_counter() - start)
            shard_stats = shard_engine.last_shard_stats

    identical = all(
        pickle.dumps(cold[spec]) == pickle.dumps(result)
        and pickle.dumps(warm[spec]) == pickle.dumps(result)
        and pickle.dumps(sharded[spec]) == pickle.dumps(result)
        and pickle.dumps(oracle) == pickle.dumps(result)
        and pickle.dumps(plain) == pickle.dumps(result)
        and pickle.dumps(recorded) == pickle.dumps(result)
        and pickle.dumps(rewarmed) == pickle.dumps(result)
        for spec, result, oracle, plain, recorded, rewarmed in zip(
            specs, serial, scalar, untraced, traced, warm_serial
        )
    )
    best_batched_s = min(parallel_cold_s, parallel_warm_s, shard_cold_s)
    return {
        "sweep": {
            "systems": list(SYSTEMS),
            "apps": list(TABLE3_ORDER),
            "n_specs": len(specs),
            "n_frames": n_frames,
            "seed": seed,
        },
        "engine": engine,
        "jobs": jobs,
        "shards": shards,
        "reps": reps,
        "cpu_count": os.cpu_count(),
        "available_cpus": available_cpus(),
        "scalar_serial_s": round(scalar_serial_s, 3),
        "kernel_speedup": round(scalar_serial_s / serial_s, 2),
        "serial_s": round(serial_s, 3),
        "serial_warm_s": round(serial_warm_s, 3),
        "obs_untraced_s": round(obs_untraced_s, 3),
        "obs_traced_s": round(obs_traced_s, 3),
        "obs_disabled_overhead": round(obs_untraced_s / serial_warm_s, 4),
        "obs_trace_overhead": round(obs_traced_s / obs_untraced_s, 2),
        "parallel_cold_s": round(parallel_cold_s, 3),
        "shard_cold_s": round(shard_cold_s, 3),
        "parallel_warm_s": round(parallel_warm_s, 3),
        "speedup_cold": round(serial_s / parallel_cold_s, 2),
        "speedup_shard_cold": round(serial_s / shard_cold_s, 2),
        "speedup_warm": round(serial_s / parallel_warm_s, 2),
        "speedup": round(serial_s / best_batched_s, 2),
        "shard_stats": {
            "shards": shard_stats.shards,
            "workers": shard_stats.workers,
            "requeues": shard_stats.requeues,
            "executed": shard_stats.executed,
        },
        "warm_cache_hits": warm_hits,
        "bit_identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: CPUs available to this process)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="shard count for the sharded run (default: max(4, 2 * jobs))",
    )
    parser.add_argument(
        "--reps", type=int, default=3,
        help="repetitions of the batched legs; the minimum is reported",
    )
    parser.add_argument("--frames", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--engine", default="vector", choices=list(ENGINE_NAMES))
    parser.add_argument("--out", default="BENCH_batch.json")
    args = parser.parse_args(argv)

    jobs = args.jobs if args.jobs is not None else available_cpus()
    report = bench(
        jobs=jobs,
        n_frames=args.frames,
        seed=args.seed,
        engine=args.engine,
        shards=args.shards,
        reps=args.reps,
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if not report["bit_identical"]:
        print("ERROR: scalar/serial/batched results diverged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
