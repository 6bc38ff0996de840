"""Trace event streams: JSONL per process, merge, Chrome export.

Each traced process appends newline-delimited JSON records to its own
file in the trace directory (``<process>.jsonl``), flushed per record
so a SIGKILL can tear at most the final line.  Readers keep the valid
prefix and drop a torn tail, so a dead worker's trace merges cleanly.

Every file opens with a ``process`` anchor record carrying a paired
(wall, monotonic) clock sample.  Event timestamps are monotonic within
their process; :func:`merge_trace_dir` maps them onto one shared wall
axis via each anchor's ``wall - monotonic`` offset, which is how
per-worker clock skew is reconciled without any cross-process
coordination at runtime.

:func:`write_chrome_trace` renders the merged stream in the Chrome
trace-event JSON format, loadable directly in Perfetto
(https://ui.perfetto.dev) — spans become B/E duration events (a span
torn open by a crash renders as unfinished, which is exactly what
happened), instants become ``i`` events, and merged counters ride along
in process metadata.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = [
    "JsonlSink",
    "merge_trace_dir",
    "read_events",
    "trace_files",
    "write_chrome_trace",
]


class JsonlSink:
    """Append-only newline-delimited JSON writer, flushed per record."""

    __slots__ = ("path", "_fh")

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def emit(self, record: dict) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def read_events(path: str | os.PathLike) -> list[dict]:
    """Read one JSONL trace file, salvaging a torn tail.

    A record is kept only if its line is newline-terminated and decodes
    as JSON; the first violation ends the read (everything after a torn
    frame is unreachable by the append-only writer's contract).
    """
    events: list[dict] = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError:
        return events
    with fh:
        for line in fh:
            if not line.endswith("\n"):
                break
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if isinstance(record, dict):
                events.append(record)
    return events


def trace_files(trace_dir: str | os.PathLike) -> list[Path]:
    """The per-process event files of a trace directory, sorted by name."""
    root = Path(trace_dir)
    if not root.is_dir():
        return []
    return sorted(p for p in root.glob("*.jsonl") if p.is_file())


def merge_trace_dir(trace_dir: str | os.PathLike) -> tuple[list[dict], list[dict]]:
    """Merge every per-process stream onto one wall-clock axis.

    Returns ``(events, snapshots)``: timeline events (``span_begin`` /
    ``span_end`` / ``instant``) with a reconciled ``ts_s`` wall
    timestamp and their ``proc`` name attached, sorted by
    ``(ts_s, proc, file order)``; and the list of per-process metrics
    snapshots found in the streams.  Events recorded before a clock
    anchor (possible only in a hand-damaged file) are dropped.
    """
    merged: list[tuple[float, str, int, dict]] = []
    snapshots: list[dict] = []
    for path in trace_files(trace_dir):
        proc = path.stem
        offset = None
        for seq, record in enumerate(read_events(path)):
            kind = record.get("kind")
            if kind == "process":
                offset = float(record["wall_s"]) - float(record["mono_s"])
            elif kind == "metrics":
                snapshots.append(record.get("snapshot", {}))
            elif kind in ("span_begin", "span_end", "instant"):
                if offset is None:
                    continue
                event = dict(record)
                event["proc"] = proc
                event["ts_s"] = float(record["mono_s"]) + offset
                merged.append((event["ts_s"], proc, seq, event))
    merged.sort(key=lambda item: item[:3])
    return [event for _, _, _, event in merged], snapshots


def write_chrome_trace(
    events: list[dict],
    path: str | os.PathLike,
    counters: dict | None = None,
) -> None:
    """Write merged events as Chrome trace-event JSON (Perfetto-loadable)."""
    procs = sorted({event["proc"] for event in events})
    pids = {proc: index + 1 for index, proc in enumerate(procs)}
    t0 = min((event["ts_s"] for event in events), default=0.0)
    trace_events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": proc},
        }
        for proc, pid in pids.items()
    ]
    for event in events:
        ts_us = (event["ts_s"] - t0) * 1e6
        entry = {
            "name": event.get("name", "?"),
            "cat": "obs",
            "ts": ts_us,
            "pid": pids[event["proc"]],
            "tid": 1,
            "args": event.get("attrs", {}),
        }
        kind = event["kind"]
        if kind == "span_begin":
            entry["ph"] = "B"
            entry["args"] = {**entry["args"], "id": event.get("id")}
        elif kind == "span_end":
            entry["ph"] = "E"
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        trace_events.append(entry)
    payload: dict = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    if counters:
        payload["metadata"] = {"obs.counters": counters}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")
