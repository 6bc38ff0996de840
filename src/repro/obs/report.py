"""Aggregate a trace directory into human-readable breakdowns.

The analysis layer over :mod:`repro.obs.sinks`: merge the per-process
streams, pair spans, and report a stage-level latency breakdown (count,
total, mean, p50/p99 via the log-binned sketch), per-process
utilization (busy fraction under top-level spans), and the merged
counter/gauge snapshot.  ``repro obs report DIR`` prints these tables;
``--html`` additionally writes a standalone timeline page and
``--chrome-trace`` the Perfetto-loadable export.
"""

from __future__ import annotations

import html
import os

from repro.analysis.report import format_table
from repro.obs import metrics
from repro.obs.sinks import merge_trace_dir, write_chrome_trace
from repro.obs.trace import spans
from repro.sim.metrics import StreamSummary

__all__ = [
    "export_chrome_trace",
    "load_trace",
    "render_html",
    "render_report",
    "stage_rows",
    "utilization_rows",
]


def load_trace(trace_dir: str | os.PathLike) -> tuple[list[dict], dict]:
    """Merged (events, metrics-snapshot) for a trace directory."""
    events, snapshots = merge_trace_dir(trace_dir)
    return events, metrics.merge_snapshots(snapshots)


def _span_durations(events: list[dict]) -> list[tuple[dict, dict, float]]:
    return [
        (begin, end, max(0.0, end["ts_s"] - begin["ts_s"]))
        for begin, end in spans(events)
    ]


def stage_rows(events: list[dict]) -> list[list[object]]:
    """Per-stage latency rows: name, count, total s, mean/p50/p99/max ms."""
    stages: dict[str, StreamSummary] = {}
    for begin, _end, duration_s in _span_durations(events):
        stages.setdefault(begin["name"], StreamSummary()).add(duration_s * 1e3)
    rows: list[list[object]] = []
    for name, summary in sorted(
        stages.items(),
        key=lambda item: (
            -(item[1].moments.mean * item[1].moments.count),
            item[0],
        ),
    ):
        moments = summary.moments
        rows.append(
            [
                name,
                moments.count,
                moments.count * moments.mean / 1e3,
                moments.mean,
                summary.sketch.quantile(0.5),
                summary.sketch.quantile(0.99),
                moments.max,
            ]
        )
    return rows


def utilization_rows(events: list[dict]) -> list[list[object]]:
    """Per-process rows: events, extent s, busy s (top-level spans), util."""
    extent: dict[str, list[float]] = {}
    busy: dict[str, float] = {}
    counts: dict[str, int] = {}
    for event in events:
        proc = event["proc"]
        counts[proc] = counts.get(proc, 0) + 1
        window = extent.setdefault(proc, [event["ts_s"], event["ts_s"]])
        window[0] = min(window[0], event["ts_s"])
        window[1] = max(window[1], event["ts_s"])
    for begin, _end, duration_s in _span_durations(events):
        if "parent" not in begin:
            proc = begin["proc"]
            busy[proc] = busy.get(proc, 0.0) + duration_s
    rows = []
    for proc in sorted(extent):
        lo, hi = extent[proc]
        span_s = hi - lo
        busy_s = busy.get(proc, 0.0)
        rows.append(
            [
                proc,
                counts[proc],
                span_s,
                busy_s,
                (busy_s / span_s) if span_s > 0 else float("nan"),
            ]
        )
    return rows


def render_report(trace_dir: str | os.PathLike) -> str:
    """The full plain-text report for a trace directory."""
    events, merged = load_trace(trace_dir)
    sections = []
    stage = stage_rows(events)
    if stage:
        sections.append(
            format_table(
                ["stage", "count", "total_s", "mean_ms", "p50_ms", "p99_ms",
                 "max_ms"],
                stage,
                title="Stage latency breakdown",
            )
        )
    util = utilization_rows(events)
    if util:
        sections.append(
            format_table(
                ["process", "events", "extent_s", "busy_s", "utilization"],
                util,
                title="Process utilization",
            )
        )
    counters = merged.get("counters", {})
    if counters:
        sections.append(
            format_table(
                ["counter", "value"],
                [[name, value] for name, value in counters.items()],
                title="Counters (merged)",
            )
        )
    gauges = merged.get("gauges", {})
    if gauges:
        sections.append(
            format_table(
                ["gauge", "value"],
                [
                    [name, state["value"]]
                    for name, state in gauges.items()
                    if state["value"] is not None
                ],
                title="Gauges (merged)",
            )
        )
    if not sections:
        sections.append(f"no trace events found under {trace_dir}")
    return "\n\n".join(sections)


def export_chrome_trace(
    trace_dir: str | os.PathLike, out_path: str | os.PathLike
) -> int:
    """Write the Perfetto-loadable export; returns the event count."""
    events, merged = load_trace(trace_dir)
    write_chrome_trace(events, out_path, counters=merged.get("counters"))
    return len(events)


# ---------------------------------------------------------------------------
# Standalone HTML timeline
# ---------------------------------------------------------------------------

_HTML_HEAD = """<!doctype html>
<html><head><meta charset="utf-8"><title>obs trace timeline</title>
<style>
body { font: 13px/1.4 monospace; margin: 1.5em; background: #fafafa; }
h1, h2 { font-size: 15px; }
.lane { position: relative; height: 22px; margin: 2px 0;
        background: #eee; border-radius: 3px; }
.lane .label { position: absolute; left: 4px; top: 3px; color: #666;
               z-index: 0; }
.span { position: absolute; top: 2px; height: 18px; border-radius: 2px;
        overflow: hidden; white-space: nowrap; color: #fff;
        font-size: 10px; padding-left: 2px; box-sizing: border-box; }
.instant { position: absolute; top: 0; width: 2px; height: 22px;
           background: #d33; }
table { border-collapse: collapse; margin: 1em 0; }
td, th { border: 1px solid #ccc; padding: 2px 8px; text-align: right; }
td:first-child, th:first-child { text-align: left; }
</style></head><body>
<h1>obs trace timeline</h1>
"""


def _color(name: str) -> str:
    hue = sum(ord(c) for c in name) * 47 % 360
    return f"hsl({hue}, 55%, 45%)"


def render_html(trace_dir: str | os.PathLike) -> str:
    """A dependency-free HTML page: one lane per process + stage table."""
    events, _merged = load_trace(trace_dir)
    parts = [_HTML_HEAD]
    if not events:
        parts.append(f"<p>no trace events found under {html.escape(str(trace_dir))}</p>")
        parts.append("</body></html>\n")
        return "".join(parts)
    t0 = min(event["ts_s"] for event in events)
    t1 = max(event["ts_s"] for event in events)
    width = max(t1 - t0, 1e-9)
    durations = _span_durations(events)
    procs = sorted({event["proc"] for event in events})
    parts.append(f"<p>{len(events)} events, {width:.3f}s extent, "
                 f"{len(procs)} process(es)</p>")
    for proc in procs:
        parts.append(f'<div class="lane"><span class="label">'
                     f"{html.escape(proc)}</span>")
        for begin, _end, duration_s in durations:
            if begin["proc"] != proc:
                continue
            left = (begin["ts_s"] - t0) / width * 100.0
            span_width = max(duration_s / width * 100.0, 0.15)
            name = begin["name"]
            title = f"{name} ({duration_s * 1e3:.2f} ms)"
            parts.append(
                f'<div class="span" style="left:{left:.3f}%;'
                f"width:{span_width:.3f}%;"
                f'background:{_color(name)}" title="{html.escape(title)}">'
                f"{html.escape(name)}</div>"
            )
        for event in events:
            if event["proc"] != proc or event["kind"] != "instant":
                continue
            left = (event["ts_s"] - t0) / width * 100.0
            parts.append(
                f'<div class="instant" style="left:{left:.3f}%" '
                f'title="{html.escape(event["name"])}"></div>'
            )
        parts.append("</div>")
    stage = stage_rows(events)
    if stage:
        parts.append("<h2>Stage latency breakdown</h2><table><tr>")
        for header in ("stage", "count", "total_s", "mean_ms", "p50_ms",
                       "p99_ms", "max_ms"):
            parts.append(f"<th>{header}</th>")
        parts.append("</tr>")
        for row in stage:
            parts.append("<tr>")
            for value in row:
                cell = f"{value:.2f}" if isinstance(value, float) else str(value)
                parts.append(f"<td>{html.escape(cell)}</td>")
            parts.append("</tr>")
        parts.append("</table>")
    parts.append("</body></html>\n")
    return "".join(parts)
