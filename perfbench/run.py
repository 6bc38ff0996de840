"""The repository benchmark: one command, two workloads, checked outputs.

Run one workload for a fixed time and print its metrics::

    python3 perfbench/run.py --workload city-sharded --seed 7 --seconds 60 --trace 0

Each repetition runs in a fresh process (``perfbench/rep.py``) so memos
start cold; the command fits as many as it can into ``--seconds`` (at
least three).  With ``--trace 0`` it prints every end-to-end metric of
``BENCHMARK.json``: ``wall_s`` and ``specs_per_s`` from the fastest
repetition, as in the repository's run-pack protocol, since contention
from other tenants of the host only ever slows a repetition down;
``setup_s`` as the median of at least nine set-ups; ``peak_rss_mb`` as
the median.  With ``--trace 1`` it alternates untraced and traced
repetitions and prints every per-layer metric instead, each the median
over the traced repetitions.  The last line of standard output is one
JSON object::

    {"correct": true, "attempted": 1530, "failed": 0, "metrics": {...}}

Every repetition's output digest is checked: against the golden digest
in ``perfbench/goldens.json`` when the seed has one (each workload's
default seed and one held-out seed: 0 and 1 for ``fig12-grid``, 7 and 11
for ``city-sharded``, whose goldens are those of its serial reference
run ``city-serial``), and always against the other repetitions of the
run.  ``city-sharded`` at a seed without a golden is also checked
against one serial run of the same seed.  A mismatch counts every
operation of that repetition as failed and makes the command exit 1.

Compare two sets of recorded runs (``--record FILE`` appends each run's
result as one JSON line)::

    python3 perfbench/run.py --compare before.jsonl after.jsonl

prints each end-to-end metric's median, quartiles and delta per
workload, the per-layer self-time deltas sorted by size, and exits 1
naming the layer that moved most when a metric got worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import PAPER_QVR_SPEEDUP, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CONFIG = ROOT / "BENCHMARK.json"
GOLDENS = BENCH_DIR / "goldens.json"
SCRATCH = ROOT / ".perfbench_tmp"
REQUIRED = (ROOT / "src" / "repro" / "__init__.py", ROOT / "examples" / "population.json")

MIN_REPS = 3
SETUP_SAMPLES = 9
REP_TIMEOUT_S = 60.0

#: How each end-to-end metric folds its per-rep values.
END_TO_END_FIELDS = {
    "setup_s": statistics.median,
    "wall_s": min,
    "specs_per_s": max,
    "peak_rss_mb": statistics.median,
}


class RepFailed(RuntimeError):
    """A repetition exited non-zero or printed no result."""


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def spawn_rep(workload: str, seed: int, mode: str) -> dict:
    """Run one repetition (``rep.py --mode``) in a fresh process."""
    SCRATCH.mkdir(exist_ok=True)
    scratch = SCRATCH / f"rep-{os.getpid()}-{time.monotonic_ns()}"
    scratch.mkdir()
    command = [
        sys.executable, str(BENCH_DIR / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--scratch", str(scratch), "--mode", mode,
    ]
    env = dict(os.environ, TMPDIR=str(scratch))
    try:
        t0 = time.monotonic()
        child = subprocess.Popen(
            command + ["--t0", repr(t0)],
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            start_new_session=True,
            text=True,
        )
        try:
            stdout, _ = child.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(child.pid)
            child.communicate()
            raise RepFailed(f"{workload} seed {seed}: timed out") from None
        # A rep that died early can leave pool workers behind.
        _kill_group(child.pid)
        if child.returncode != 0:
            raise RepFailed(f"{workload} seed {seed}: exit {child.returncode}")
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            raise RepFailed(f"{workload} seed {seed}: no result") from None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reference(workload: str, seed: int, goldens: dict, rep) -> dict | None:
    """The digest and readouts every rep must reproduce, when known up front."""
    spec = WORKLOADS[workload]
    golden = goldens.get(spec.golden_key, {}).get(str(seed))
    if golden is not None:
        return golden
    if spec.golden_of:
        row = rep(spec.golden_of, seed, "run")
        return {"digest": row["digest"], "readouts": row["readouts"]}
    return None


def bench(
    workload: str, seed: int, seconds: float, trace: bool, config: dict,
    goldens: dict, rep=spawn_rep, log=print,
) -> dict:
    """Measure one workload; returns the result object ``run.py`` prints.

    Untraced: repetitions until ``seconds`` pass (at least ``MIN_REPS``),
    then set-up-only repetitions until ``SETUP_SAMPLES`` set-up times are
    in hand; each metric folds its samples as ``END_TO_END_FIELDS`` says.
    Traced: untraced and traced repetitions alternate, and each per-layer
    metric is the median over the traced ones.
    """
    rows: list[dict] = []
    crashed = 0
    start = last = time.monotonic()
    try:
        # Start another rep only if one as long as the last fits in time.
        while len(rows) < MIN_REPS or 2 * time.monotonic() - last < start + seconds:
            mode = "traced" if trace and len(rows) % 2 == 1 else "run"
            last = time.monotonic()
            rows.append({**rep(workload, seed, mode), "mode": mode})
        setups = [row["setup_s"] for row in rows if row["mode"] == "run"]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(rep(workload, seed, "setup")["setup_s"])
        reference = _reference(workload, seed, goldens, rep)
    except RepFailed as error:
        log(f"FAILED: {error}")
        crashed = 1
        reference = None
    if reference is None and rows:
        reference = {"digest": rows[0]["digest"], "readouts": rows[0]["readouts"]}

    attempted = failed = 0
    for row in rows:
        attempted += row["specs"]
        if (row["digest"], row["readouts"]) != (
            reference["digest"], reference["readouts"]
        ):
            log(f"MISMATCH: {workload} seed {seed} digest {row['digest'][:12]}")
            failed += row["specs"]
    per_rep = rows[0]["specs"] if rows else 1
    attempted += crashed * per_rep
    failed += crashed * per_rep

    untraced = [row for row in rows if row["mode"] == "run"]
    traced_rows = [row for row in rows if row["mode"] == "traced"]
    values: dict[str, float] = {}
    if trace:
        for name in config["per_layer_names"]:
            values[name] = _median([row["layers"][name] for row in traced_rows])
        untraced_wall = _median([row["wall_s"] for row in untraced])
        values["obs.trace_overhead"] = (
            _median([row["wall_s"] for row in traced_rows]) / untraced_wall
            if untraced_wall else 0.0
        )
        units = config["per_layer"]
    else:
        for name, fold in END_TO_END_FIELDS.items():
            samples = setups if name == "setup_s" and not crashed else [
                row[name] for row in untraced
            ]
            values[name] = fold(samples) if samples else 0.0
        units = config["end_to_end"]

    if rows:
        log(
            f"{workload} seed {seed}: {len(rows)} reps "
            f"({len(traced_rows)} traced), {rows[0]['specs']} specs/rep, "
            f"digest {reference['digest'][:12]}"
        )
        for name, value in reference["readouts"].items():
            log(
                f"{workload}: {name} = {value:.4f}x (paper: {PAPER_QVR_SPEEDUP}x; "
                "simulated, checked only against the paper's figure, "
                "no hardware validation)"
            )
    return {
        "correct": failed == 0 and bool(rows),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": units[name]} for name in units
        },
    }


def load_config() -> dict:
    """``BENCHMARK.json`` with its metric lists turned into name -> unit maps."""
    raw = load_json(CONFIG)
    per_layer = {m["name"]: m["unit"] for m in raw["per_layer"]}
    return {
        "end_to_end": {m["name"]: m["unit"] for m in raw["end_to_end"]},
        "bounds": {m["name"]: (m["bound"], m["better"]) for m in raw["end_to_end"]},
        "per_layer": per_layer,
        "per_layer_names": [n for n in per_layer if n != "obs.trace_overhead"],
        "workloads": [w["name"] for w in raw["workloads"]],
    }


# -- compare ------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _metric_values(records: list[dict], workload: str, trace: int, name: str) -> list[float]:
    return [
        r["result"]["metrics"][name]["value"]
        for r in records
        if r["workload"] == workload and r["trace"] == trace
        and name in r["result"]["metrics"]
    ]


def compare(before: Path, after: Path, config: dict, log=print) -> int:
    """Print per-workload deltas; 1 if any end-to-end metric regressed."""
    a, b = _records(before), _records(after)
    workloads = [w for w in config["workloads"] if any(r["workload"] == w for r in a + b)]
    regressions = 0
    for workload in workloads:
        log(f"== {workload}")
        log(f"{'metric':<18} {'before [q1, q3]':>30} {'after [q1, q3]':>30} {'delta':>8}")
        worse: list[str] = []
        for name, unit in config["end_to_end"].items():
            va = _metric_values(a, workload, 0, name)
            vb = _metric_values(b, workload, 0, name)
            if not va or not vb:
                continue
            qa, qb = _quartiles(va), _quartiles(vb)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            bound, better = config["bounds"][name]
            change = delta if better == "lower" else -delta
            flag = ""
            if change > bound:
                flag = "  WORSE"
                worse.append(f"{name} {delta:+.1%}")
            log(
                f"{name:<18} {qa[1]:>10.4g} [{qa[0]:.4g}, {qa[2]:.4g}] {unit:<3}"
                f" {qb[1]:>10.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {unit:<3} {delta:>+8.1%}{flag}"
            )
        moved = []
        for name in config["per_layer"]:
            if not name.endswith("_self_s"):
                continue
            va = _metric_values(a, workload, 1, name)
            vb = _metric_values(b, workload, 1, name)
            if va and vb:
                moved.append((_median(vb) - _median(va), name[: -len("_self_s")]))
        moved.sort(key=lambda item: (-abs(item[0]), item[1]))
        if moved:
            log("self-time deltas (after - before):")
            for delta_s, layer in moved:
                log(f"  {layer:<22} {delta_s:+.4f} s")
            log(f"layer that moved most: {moved[0][1]} ({moved[0][0]:+.4f} s)")
        if worse:
            regressions += 1
            culprit = f"; layer that moved most: {moved[0][1]}" if moved else ""
            log(f"REGRESSION on {workload}: {', '.join(worse)}{culprit}")
    return 1 if regressions else 0


# -- command line -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append this run's result to a JSON-lines file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED + (CONFIG,) if not p.is_file()]
    if missing:
        print(f"error: not a repository checkout, missing {missing}", file=sys.stderr)
        return 2
    config = load_config()
    if args.compare:
        return compare(*args.compare, config)
    if args.workload not in config["workloads"]:
        parser.error(f"--workload must be one of {config['workloads']}")

    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    result = bench(
        args.workload, seed, args.seconds, bool(args.trace), config, load_json(GOLDENS)
    )
    try:
        SCRATCH.rmdir()
    except OSError:  # absent, or still used by a concurrent run
        pass
    if args.record is not None:
        with open(args.record, "a", encoding="utf-8") as fh:
            record = {"workload": args.workload, "seed": seed, "trace": args.trace}
            fh.write(json.dumps({**record, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
