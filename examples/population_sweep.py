#!/usr/bin/env python3
"""Population sweep: 1,000+ runs through the sharded streaming executor.

Expands a population-scale parameter grid — every system design of the
paper, all seven Table 3 titles, and a couple dozen random seeds — into
1,029 run specs, executes them through the sharded executor, and
aggregates per-system latency and frame-rate statistics *while results
stream past*.  No full-sweep result list ever exists:
each ``(spec, result)`` pair is folded into O(1) mergeable summaries
(:class:`~repro.sim.metrics.StreamSummary`) and dropped, so peak memory
is one in-flight result regardless of population size.  Nothing is kept
on disk; give the engine a ``cache_dir`` and a re-run (or the rerun of
an interrupted sweep) executes only the runs the cache lacks.

Run:
    python examples/population_sweep.py [n_seeds]
"""

import sys

from repro.analysis.report import format_table
from repro.sim.metrics import StreamSummary
from repro.sim.runner import BatchEngine, Sweep
from repro.workloads.apps import TABLE3_ORDER

SYSTEMS = ("local", "remote", "static", "ffr", "dfr", "sw-qvr", "qvr")


def main() -> None:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 21
    sweep = Sweep(
        systems=SYSTEMS,
        apps=TABLE3_ORDER,
        seeds=tuple(range(n_seeds)),
        n_frames=30,
    )
    n_specs = len(sweep.specs())
    print(
        f"Streaming {n_specs} runs ({len(SYSTEMS)} systems x "
        f"{len(TABLE3_ORDER)} apps x {n_seeds} seeds) through 16 shards..."
    )

    latency = {name: StreamSummary() for name in SYSTEMS}
    fps = {name: StreamSummary() for name in SYSTEMS}
    engine = BatchEngine(shards=16)
    for spec, result in engine.stream_sweep(sweep):
        result.fold_into(latency=latency[spec.system], fps=fps[spec.system])
    stats = engine.stats

    rows = []
    for name in SYSTEMS:
        lat, rate = latency[name].row(), fps[name].row()
        rows.append(
            [
                name,
                lat["count"],
                f"{lat['mean']:.1f}",
                f"{lat['p50']:.1f}",
                f"{lat['p90']:.1f}",
                f"{lat['p99']:.1f}",
                f"{rate['mean']:.0f}",
                f"{rate['p99']:.0f}",
            ]
        )
    print()
    print(
        format_table(
            [
                "design", "frames", "lat mean", "lat p50",
                "lat p90", "lat p99", "FPS mean", "FPS p99",
            ],
            rows,
            title=f"Population sweep — {n_specs} runs, streamed",
        )
    )
    print(
        f"\nExecutor: {stats.shards} shards, {stats.workers or 1} worker(s), "
        f"{stats.executed} specs executed, {stats.requeues} requeues."
    )


if __name__ == "__main__":
    main()
