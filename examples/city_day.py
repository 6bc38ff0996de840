#!/usr/bin/env python3
"""A day in the city: a diurnal 10k-client demand scenario, end to end.

Loads the ``examples/population.json`` demand scenario — a full
simulated day of collaborative VR sessions arriving on a diurnal curve
that peaks in the evening, spiked by a flash crowd, with mixed apps,
mixed 4G/5G/Wi-Fi links, and per-client churn — expands it into
thousands of event-driven sessions, and streams every client-session
through the sharded batch executor.  Memory stays bounded: each result
folds into order-independent streaming aggregates and is dropped, so
the same report comes back bit-identical at any shard count.

The optional scale factor multiplies the arrival rate, keeping the
diurnal shape while shrinking the city: the default 0.02 runs a ~2%
day in a few seconds (what CI's examples smoke runs), and 1.0 is the
full 10,000+ client-session day:

    python examples/city_day.py [scale] [shards]
"""

import sys
from dataclasses import replace

from repro.analysis.report import format_table
from repro.sim.demand import DemandScenario, run_population
from repro.sim.runner import BatchEngine


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.02
    shards = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    scenario = DemandScenario.from_json("examples/population.json")
    if scale != 1.0:
        scenario = replace(
            scenario,
            arrivals=replace(
                scenario.arrivals,
                rate_per_min=scenario.arrivals.rate_per_min * scale,
            ),
        )
    print(
        f"Expanding a {scale:g}x day of {scenario.name!r} "
        f"(mean {scenario.arrivals.rate_per_min:.3f} sessions/min, "
        f"{len(scenario.flash_crowds)} flash crowd(s)) ..."
    )
    engine = BatchEngine(shards=shards)
    report = run_population(scenario, seed=7, engine=engine)
    print(
        f"{report['sessions']} sessions -> {report['clients']} clients -> "
        f"{report['client_sessions']} client-sessions across "
        f"{len(report['policies'])} policies"
    )
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
                r["executed"],
                f"{r['latency_ms']['mean']:.2f}",
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
                "policy", "executed", "mean lat (ms)", "p99 lat (ms)",
                "mean FPS", "median client p99", "SLO met", "attainment",
            ],
            rows,
            title=(
                f"city-day @ {scale:g}x — fleet-wide SLO attainment "
                f"(p99-FPS floor {report['slo_p99_fps_floor']:g})"
            ),
        )
    )


if __name__ == "__main__":
    main()
