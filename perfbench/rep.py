"""One repetition of one workload, in a fresh process.

Prints one JSON object: the rep's end-to-end timings, its output digest
and readouts, and — when traced — the per-layer block.  ``run.py``
starts one of these per repetition so every rep begins with cold memos.

Usage::

    python3 perfbench/rep.py --workload city-serial --seed 7 \\
        --t0 <time.monotonic() at spawn> --scratch DIR [--mode run|traced|setup]

``--mode setup`` stops after set-up and reports ``setup_s`` alone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import layers  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped workers."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


MODES = ("run", "traced", "setup")


def measure(workload: str, seed: int, t0: float, scratch: Path, mode: str = "run") -> dict:
    """Set up and run one workload; returns the rep's measurements.

    ``t0`` is the ``time.monotonic()`` reading taken when the process
    was started, so ``setup_s`` covers interpreter start, imports,
    scenario load and engine construction.
    """
    spec = WORKLOADS[workload]
    trace_dir = scratch / "trace"
    traced = mode == "traced"
    with layers.traced_entry_points(trace_dir) if traced else contextlib.nullcontext():
        prepared = spec.prepare(seed, scratch)
        start = time.monotonic()
        if mode == "setup":
            return {"setup_s": start - t0}
        with layers.root_span():
            output = prepared.run()
        end = time.monotonic()
    checked = prepared.check(output)
    row = {
        "workload": workload,
        "seed": seed,
        "setup_s": start - t0,
        "wall_s": end - start,
        "specs": checked.operations,
        "specs_per_s": checked.operations / (end - start),
        "peak_rss_mb": peak_rss_mb(),
        "digest": checked.digest,
        "readouts": checked.readouts,
    }
    if traced:
        row["layers"] = layers.analyse(trace_dir)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--mode", choices=MODES, default="run")
    args = parser.parse_args(argv)
    row = measure(args.workload, args.seed, args.t0, args.scratch, args.mode)
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
