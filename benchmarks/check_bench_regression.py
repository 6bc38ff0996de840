"""Bench regression gate: compare a fresh BENCH_batch.json to the baseline.

CI runs ``bench_batch.py`` on every PR and then this script, which fails
the job when the batch engine's headline numbers regress against the
committed ``BENCH_batch.json`` baseline:

* ``speedup_cold`` (serial time over cold batched time) must not fall by
  more than ``--max-speedup-regression`` (default 25%).  Both terms of
  the ratio are measured in the *same* fresh run, so machine speed
  cancels and the gate tracks engine overhead, not runner hardware —
  unlike the warm-cache ratio, whose denominator is ~20 ms of cache
  lookups and which therefore swings with absolute CPU speed;
* ``kernel_speedup`` (scalar-oracle time over vectorized-kernel time,
  both from the same fresh run) must not fall by more than
  ``--max-kernel-regression`` (default 25%).  This is the headline win
  of the array-programmed frame kernels; baselines written before the
  field existed are reported informationally instead of gated;
* ``speedup_shard_cold`` (serial time over cold *sharded* batched time,
  the sharded executor's headline) is gated exactly like
  ``speedup_cold`` with ``--max-shard-regression`` (default 25%);
  baselines written before sharded execution existed are reported
  informationally instead of gated;
* ``serial_s`` (the plain one-spec-at-a-time wall time, a proxy for the
  simulator's own speed) must not grow by more than
  ``--max-serial-slowdown`` (default 50%).  This is an absolute time
  compared across machines, so the generous tolerance is load-bearing:
  it absorbs runner-hardware spread while still catching multi-x
  simulator slowdowns.  Re-baseline (re-run ``bench_batch.py`` and
  commit the JSON) whenever a PR legitimately moves it;
* ``obs_disabled_overhead`` (the serial sweep re-timed after tracer
  configure/shutdown cycles, over the warm serial reference timed
  before any tracer existed — two identical warm code paths in the
  same fresh run) must stay under ``1 + --max-obs-overhead`` (default
  2%).  This is the "tracing is free when disabled" promise of
  ``docs/observability.md``; the threshold is absolute because both
  terms come from the same run.  Baselines written before the obs
  plane existed are not gated on the baseline side;
* the warm engine must answer **every** spec from the cache
  (``warm_cache_hits == n_specs``) and serial/batched results must stay
  bit-identical — both deterministic, timing-free functional checks.

The before/after comparison is printed as a Markdown table and appended
to ``$GITHUB_STEP_SUMMARY`` when that file is available, so the verdict
shows up in the job summary without digging through logs.  With
``--leaderboard-json`` / ``--leaderboard-html`` the same comparison is
also written as machine-readable and browsable leaderboard artifacts;
``--pack`` folds the trimmed means of canonical run packs (see
``run_pack.py``) into them.  Only the standard library is required —
the gate adds no dependencies to the benchmark job.

Usage::

    python benchmarks/check_bench_regression.py BENCH_batch.json fresh.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def compare(
    baseline: dict,
    fresh: dict,
    max_speedup_regression: float,
    max_serial_slowdown: float,
    max_kernel_regression: float = 0.25,
    max_shard_regression: float = 0.25,
    max_obs_overhead: float = 0.02,
) -> tuple[list[list[str]], list[str]]:
    """Build the comparison table and the list of violated limits."""
    failures: list[str] = []
    rows: list[list[str]] = []

    base_speedup = float(baseline["speedup_cold"])
    new_speedup = float(fresh["speedup_cold"])
    speedup_floor = base_speedup * (1.0 - max_speedup_regression)
    speedup_ok = new_speedup >= speedup_floor
    rows.append(
        [
            "parallel speedup (serial / cold batched)",
            f"{_fmt(base_speedup)}x",
            f"{_fmt(new_speedup)}x",
            f">= {_fmt(speedup_floor)}x",
            "ok" if speedup_ok else "REGRESSED",
        ]
    )
    if not speedup_ok:
        failures.append(
            f"parallel speedup regressed more than "
            f"{max_speedup_regression:.0%}: {_fmt(base_speedup)}x -> "
            f"{_fmt(new_speedup)}x (floor {_fmt(speedup_floor)}x)"
        )

    # The vectorized-kernel speedup shares the ratio-of-same-run structure
    # of speedup_cold: scalar oracle and vector kernels are timed in the
    # same process, so machine speed cancels and the gate tracks kernel
    # efficiency.  Older baselines predate the field, hence the guard on
    # the baseline side only — the fresh side must always report it.
    new_kernel = float(fresh["kernel_speedup"])
    if "kernel_speedup" in baseline:
        base_kernel = float(baseline["kernel_speedup"])
        kernel_floor = base_kernel * (1.0 - max_kernel_regression)
        kernel_ok = new_kernel >= kernel_floor
        rows.append(
            [
                "kernel speedup (scalar oracle / vector)",
                f"{_fmt(base_kernel)}x",
                f"{_fmt(new_kernel)}x",
                f">= {_fmt(kernel_floor)}x",
                "ok" if kernel_ok else "REGRESSED",
            ]
        )
        if not kernel_ok:
            failures.append(
                f"vectorized-kernel speedup regressed more than "
                f"{max_kernel_regression:.0%}: {_fmt(base_kernel)}x -> "
                f"{_fmt(new_kernel)}x (floor {_fmt(kernel_floor)}x)"
            )
    else:
        rows.append(
            [
                "kernel speedup (scalar oracle / vector)",
                "-",
                f"{_fmt(new_kernel)}x",
                "-",
                "info",
            ]
        )

    # The sharded executor's headline shares the same structure again:
    # serial and sharded-cold are timed in the same fresh run, so the
    # ratio tracks executor overhead (spill I/O and pool dispatch)
    # rather than machine speed.  Baselines committed before sharded
    # execution existed lack the field and are not gated.
    if "speedup_shard_cold" in fresh:
        new_shard = float(fresh["speedup_shard_cold"])
        if "speedup_shard_cold" in baseline:
            base_shard = float(baseline["speedup_shard_cold"])
            shard_floor = base_shard * (1.0 - max_shard_regression)
            shard_ok = new_shard >= shard_floor
            rows.append(
                [
                    "sharded speedup (serial / cold sharded)",
                    f"{_fmt(base_shard)}x",
                    f"{_fmt(new_shard)}x",
                    f">= {_fmt(shard_floor)}x",
                    "ok" if shard_ok else "REGRESSED",
                ]
            )
            if not shard_ok:
                failures.append(
                    f"sharded speedup regressed more than "
                    f"{max_shard_regression:.0%}: {_fmt(base_shard)}x -> "
                    f"{_fmt(new_shard)}x (floor {_fmt(shard_floor)}x)"
                )
        else:
            rows.append(
                [
                    "sharded speedup (serial / cold sharded)",
                    "-",
                    f"{_fmt(new_shard)}x",
                    "-",
                    "info",
                ]
            )

    # The observability plane's "free when disabled" promise, as a ratio
    # of two identical code paths timed in the same fresh run (machine
    # speed cancels, so the 2% threshold is absolute, not relative to
    # the baseline — a cross-machine comparison could never resolve 2%).
    # Baselines written before the obs plane existed lack the field;
    # the fresh side must always report it.
    if "obs_disabled_overhead" in fresh:
        new_obs = float(fresh["obs_disabled_overhead"])
        obs_ceiling = 1.0 + max_obs_overhead
        obs_ok = new_obs <= obs_ceiling
        rows.append(
            [
                "obs disabled overhead (untraced / warm serial)",
                str(baseline.get("obs_disabled_overhead", "-")),
                f"{new_obs:.4f}",
                f"<= {obs_ceiling:.4f}",
                "ok" if obs_ok else "REGRESSED",
            ]
        )
        if not obs_ok:
            failures.append(
                f"disabled-mode observability overhead exceeds "
                f"{max_obs_overhead:.0%}: obs_untraced_s / serial_s = "
                f"{new_obs:.4f} (ceiling {obs_ceiling:.4f}) — tracing must "
                "be free when disabled"
            )

    base_serial = float(baseline["serial_s"])
    new_serial = float(fresh["serial_s"])
    serial_ceiling = base_serial * (1.0 + max_serial_slowdown)
    serial_ok = new_serial <= serial_ceiling
    rows.append(
        [
            "serial wall time",
            f"{_fmt(base_serial)}s",
            f"{_fmt(new_serial)}s",
            f"<= {_fmt(serial_ceiling)}s",
            "ok" if serial_ok else "REGRESSED",
        ]
    )
    if not serial_ok:
        failures.append(
            f"serial wall time grew more than {max_serial_slowdown:.0%}: "
            f"{_fmt(base_serial)}s -> {_fmt(new_serial)}s "
            f"(ceiling {_fmt(serial_ceiling)}s)"
        )

    # Functional (timing-free) checks: the cache must answer every spec
    # and batched execution must stay bit-identical to serial.  Direct
    # indexing is deliberate: a schema drift in bench_batch.py must fail
    # this gate loudly, not degrade it to a no-op.
    expected_hits = int(fresh["sweep"]["n_specs"])
    warm_hits = int(fresh["warm_cache_hits"])
    hits_ok = warm_hits == expected_hits
    rows.append(
        [
            "warm cache hits",
            str(baseline.get("warm_cache_hits", "-")),
            str(warm_hits),
            f"== {expected_hits}",
            "ok" if hits_ok else "BROKEN",
        ]
    )
    if not hits_ok:
        failures.append(
            f"warm engine answered only {warm_hits}/{expected_hits} specs "
            "from the cache"
        )
    if not bool(fresh.get("bit_identical", True)):
        failures.append("fresh run reports serial/batched result divergence")
        rows.append(["bit identical", "true", "false", "true", "DIVERGED"])

    # Informational rows (no gate): they explain a moved headline number.
    for key, label, unit in (
        ("parallel_cold_s", "parallel cold", "s"),
        ("shard_cold_s", "sharded cold", "s"),
        ("parallel_warm_s", "parallel warm (cache)", "s"),
        ("speedup_warm", "warm speedup", "x"),
        ("obs_traced_s", "serial with tracing active", "s"),
        ("obs_trace_overhead", "enabled-tracing cost (traced / untraced)", "x"),
        ("cpu_count", "cpu count", ""),
        ("available_cpus", "available cpus", ""),
        ("jobs", "jobs", ""),
        ("shards", "shards", ""),
    ):
        if key in baseline and key in fresh:
            rows.append(
                [label, f"{baseline[key]}{unit}", f"{fresh[key]}{unit}", "-", "info"]
            )
    return rows, failures


def compare_population(
    baseline: dict,
    fresh: dict,
    max_shard_regression: float = 0.25,
    max_serial_slowdown: float = 0.50,
    max_volume_drift: float = 0.02,
) -> tuple[list[list[str]], list[str]]:
    """Gate a fresh BENCH_population.json against its committed baseline.

    Mirrors the batch gate's structure: the sharded speedup is a
    ratio-of-same-run (machine speed cancels), the serial wall time gets
    the generous cross-machine tolerance, and two timing-free checks —
    the serial and sharded reports must be bit-identical
    (``deterministic``), and the expanded city must stay the same size
    (``client_sessions`` within ``max_volume_drift``, absorbing libm
    rounding differences in the arrival sampler across platforms while
    catching any real change to the expansion).
    """
    failures: list[str] = []
    rows: list[list[str]] = []

    base_speedup = float(baseline["speedup_population_shard"])
    new_speedup = float(fresh["speedup_population_shard"])
    floor = base_speedup * (1.0 - max_shard_regression)
    speedup_ok = new_speedup >= floor
    rows.append(
        [
            "population sharded speedup (serial / sharded)",
            f"{_fmt(base_speedup)}x",
            f"{_fmt(new_speedup)}x",
            f">= {_fmt(floor)}x",
            "ok" if speedup_ok else "REGRESSED",
        ]
    )
    if not speedup_ok:
        failures.append(
            f"population sharded speedup regressed more than "
            f"{max_shard_regression:.0%}: {_fmt(base_speedup)}x -> "
            f"{_fmt(new_speedup)}x (floor {_fmt(floor)}x)"
        )

    base_serial = float(baseline["population_serial_s"])
    new_serial = float(fresh["population_serial_s"])
    ceiling = base_serial * (1.0 + max_serial_slowdown)
    serial_ok = new_serial <= ceiling
    rows.append(
        [
            "population serial wall time",
            f"{_fmt(base_serial)}s",
            f"{_fmt(new_serial)}s",
            f"<= {_fmt(ceiling)}s",
            "ok" if serial_ok else "REGRESSED",
        ]
    )
    if not serial_ok:
        failures.append(
            f"population serial wall time grew more than "
            f"{max_serial_slowdown:.0%}: {_fmt(base_serial)}s -> "
            f"{_fmt(new_serial)}s (ceiling {_fmt(ceiling)}s)"
        )

    deterministic = bool(fresh.get("deterministic", False))
    rows.append(
        [
            "population report determinism (serial == sharded)",
            str(baseline.get("deterministic", "-")),
            str(deterministic),
            "true",
            "ok" if deterministic else "DIVERGED",
        ]
    )
    if not deterministic:
        failures.append(
            "fresh population run reports serial/sharded report divergence"
        )

    base_volume = int(baseline["client_sessions"])
    new_volume = int(fresh["client_sessions"])
    drift = abs(new_volume - base_volume) / base_volume if base_volume else 1.0
    volume_ok = drift <= max_volume_drift
    rows.append(
        [
            "population client-sessions",
            str(base_volume),
            str(new_volume),
            f"within {max_volume_drift:.0%}",
            "ok" if volume_ok else "BROKEN",
        ]
    )
    if not volume_ok:
        failures.append(
            f"expanded city changed size: {base_volume} -> {new_volume} "
            f"client-sessions ({drift:.1%} drift, limit {max_volume_drift:.0%})"
        )

    for key, label, unit in (
        ("plan_s", "population plan time", "s"),
        ("specs_per_s", "population plan throughput", " specs/s"),
        ("population_shard_s", "population sharded cold", "s"),
        ("sessions", "population sessions", ""),
    ):
        if key in baseline and key in fresh:
            rows.append(
                [label, f"{baseline[key]}{unit}", f"{fresh[key]}{unit}", "-", "info"]
            )
    return rows, failures


def build_leaderboard(
    baseline: dict,
    fresh: dict,
    rows: list[list[str]],
    failures: list[str],
    pack_paths: list[Path],
) -> dict:
    """The comparison as a machine-readable leaderboard document.

    One entry per compared metric (baseline, fresh, limit, status) plus
    the trimmed-mean summaries of any canonical run packs, so dashboards
    and follow-up tooling read one JSON file instead of re-parsing the
    Markdown gate output.
    """
    packs = []
    for path in pack_paths:
        try:
            pack = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            packs.append({"path": str(path), "error": str(error)})
            continue
        packs.append(
            {
                "path": str(path),
                "bench": pack.get("bench"),
                "runs": pack.get("runs"),
                "commit": (pack.get("environment") or {}).get("commit"),
                "trimmed_mean": pack.get("trimmed_mean", {}),
            }
        )
    return {
        "leaderboard_version": 1,
        "verdict": "fail" if failures else "pass",
        "failures": failures,
        "metrics": [
            {
                "metric": metric,
                "baseline": base,
                "fresh": new,
                "limit": limit,
                "status": status,
            }
            for metric, base, new, limit, status in rows
        ],
        "sweep": fresh.get("sweep", {}),
        "baseline_sweep": baseline.get("sweep", {}),
        "packs": packs,
    }


_HTML_STATUS_COLOURS = {
    "ok": "#2da44e",
    "info": "#57606a",
    "REGRESSED": "#cf222e",
    "BROKEN": "#cf222e",
    "DIVERGED": "#cf222e",
}


def render_leaderboard_html(board: dict) -> str:
    """A dependency-free, single-file HTML view of the leaderboard."""
    verdict = board["verdict"]
    colour = "#2da44e" if verdict == "pass" else "#cf222e"
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        "<title>Benchmark leaderboard</title>",
        "<style>body{font-family:sans-serif;margin:2em}"
        "table{border-collapse:collapse}"
        "td,th{border:1px solid #d0d7de;padding:4px 10px;text-align:left}"
        "th{background:#f6f8fa}</style>",
        "</head><body>",
        "<h1>Benchmark leaderboard</h1>",
        f"<p>Verdict: <strong style='color:{colour}'>{verdict.upper()}</strong></p>",
        "<table><tr><th>metric</th><th>baseline</th><th>fresh</th>"
        "<th>limit</th><th>status</th></tr>",
    ]
    for entry in board["metrics"]:
        status = entry["status"]
        status_colour = _HTML_STATUS_COLOURS.get(status, "#57606a")
        parts.append(
            f"<tr><td>{entry['metric']}</td><td>{entry['baseline']}</td>"
            f"<td>{entry['fresh']}</td><td>{entry['limit']}</td>"
            f"<td style='color:{status_colour}'>{status}</td></tr>"
        )
    parts.append("</table>")
    if board["failures"]:
        parts.append("<h2>Failures</h2><ul>")
        parts += [f"<li>{failure}</li>" for failure in board["failures"]]
        parts.append("</ul>")
    for pack in board["packs"]:
        if "error" in pack:
            parts.append(
                f"<p>pack {pack['path']}: unreadable ({pack['error']})</p>"
            )
            continue
        parts.append(
            f"<h2>Run pack: {pack['bench']} ({pack['runs']} runs)</h2>"
        )
        commit = pack.get("commit") or "unknown commit"
        parts.append(f"<p>{commit}</p>")
        parts.append(
            "<table><tr><th>metric</th><th>trimmed mean</th></tr>"
        )
        for metric, value in sorted(pack["trimmed_mean"].items()):
            parts.append(f"<tr><td>{metric}</td><td>{value}</td></tr>")
        parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def render_markdown(rows: list[list[str]], failures: list[str]) -> str:
    lines = [
        "### Batch-engine bench regression gate",
        "",
        "| metric | baseline | fresh | limit | status |",
        "| --- | --- | --- | --- | --- |",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    lines.append("")
    if failures:
        lines.append("**FAILED:**")
        lines += [f"- {failure}" for failure in failures]
    else:
        lines.append("**PASSED** — no regression beyond the configured limits.")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_batch.json baseline")
    parser.add_argument("fresh", help="freshly produced BENCH_batch.json")
    parser.add_argument(
        "--max-speedup-regression", type=float, default=0.25,
        help="tolerated relative speedup loss (default: 0.25 = 25%%)",
    )
    parser.add_argument(
        "--max-serial-slowdown", type=float, default=0.50,
        help="tolerated relative serial wall-time growth (default: 0.50 = 50%%)",
    )
    parser.add_argument(
        "--max-kernel-regression", type=float, default=0.25,
        help="tolerated relative vectorized-kernel speedup loss "
        "(default: 0.25 = 25%%)",
    )
    parser.add_argument(
        "--max-shard-regression", type=float, default=0.25,
        help="tolerated relative sharded-executor speedup loss "
        "(default: 0.25 = 25%%)",
    )
    parser.add_argument(
        "--max-obs-overhead", type=float, default=0.02,
        help="tolerated disabled-mode observability overhead on the "
        "serial sweep, as a same-run ratio (default: 0.02 = 2%%)",
    )
    parser.add_argument(
        "--population-baseline", default=None, metavar="PATH",
        help="committed BENCH_population.json baseline; with "
        "--population-fresh, the population gate joins the comparison",
    )
    parser.add_argument(
        "--population-fresh", default=None, metavar="PATH",
        help="freshly produced BENCH_population.json",
    )
    parser.add_argument(
        "--leaderboard-json", default=None, metavar="PATH",
        help="also write the comparison as a leaderboard JSON document",
    )
    parser.add_argument(
        "--leaderboard-html", default=None, metavar="PATH",
        help="also write the comparison as a browsable HTML leaderboard",
    )
    parser.add_argument(
        "--pack", action="append", default=[], metavar="PACK_JSON",
        help="canonical run pack (run_pack.py output) to fold into the "
        "leaderboard; repeatable",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    fresh = json.loads(Path(args.fresh).read_text())
    rows, failures = compare(
        baseline,
        fresh,
        args.max_speedup_regression,
        args.max_serial_slowdown,
        args.max_kernel_regression,
        args.max_shard_regression,
        args.max_obs_overhead,
    )
    if bool(args.population_baseline) != bool(args.population_fresh):
        parser.error(
            "--population-baseline and --population-fresh go together"
        )
    if args.population_baseline:
        pop_rows, pop_failures = compare_population(
            json.loads(Path(args.population_baseline).read_text()),
            json.loads(Path(args.population_fresh).read_text()),
            max_shard_regression=args.max_shard_regression,
            max_serial_slowdown=args.max_serial_slowdown,
        )
        rows += pop_rows
        failures += pop_failures
    report = render_markdown(rows, failures)
    print(report)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(report)
    if args.leaderboard_json or args.leaderboard_html:
        board = build_leaderboard(
            baseline, fresh, rows, failures, [Path(p) for p in args.pack]
        )
        if args.leaderboard_json:
            Path(args.leaderboard_json).write_text(
                json.dumps(board, indent=2) + "\n"
            )
        if args.leaderboard_html:
            Path(args.leaderboard_html).write_text(render_leaderboard_html(board))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
