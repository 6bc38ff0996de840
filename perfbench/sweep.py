"""Run the benchmark over several seeds and report each metric's spread.

The spread of a metric is the distance between the first and third
quartile of its per-run values, as a share of their median.  Each
end-to-end metric's spread is printed beside its bound from
``BENCHMARK.json``::

    python3 perfbench/sweep.py --workloads city-serial --seeds 0 1 2 3 4 \\
        --record runs.jsonl

The runs are appended to ``--record``, which ``run.py --compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in config["workloads"]]
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, required=True)
    args = parser.parse_args(argv)

    failures = 0
    for workload in args.workloads:
        results = []
        started = time.monotonic()
        for seed in args.seeds:
            command = [
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--record", str(args.record),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                failures += 1
                print(f"{workload} seed {seed}: exit {done.returncode}")
                print(done.stdout + done.stderr)
                continue
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        if args.trace or len(results) < 2:
            continue
        elapsed = (time.monotonic() - started) / len(args.seeds)
        print(f"== {workload} ({len(results)} seeds, {elapsed:.1f} s per run)")
        for metric in config["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            share = spread(values)
            verdict = "ok" if share < metric["bound"] / 3 else "WIDE"
            print(
                f"  {metric['name']:<16} median {statistics.median(values):10.4f} "
                f"{metric['unit']:<4} spread {share:6.1%}  bound {metric['bound']:.0%}"
                f"  {verdict}"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
