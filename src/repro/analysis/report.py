"""Plain-text table rendering for experiment outputs.

Every benchmark prints its reproduction of a paper table/figure through
these helpers, so the console output reads like the paper's artifacts,
and every session report (``repro scenarios``, the session examples)
prints through :func:`format_session`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import ConfigurationError

__all__ = ["format_table", "format_series", "format_session"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an ASCII table with right-padded columns.

    Floats are shown with two decimals; other values via ``str``.
    """
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_session(result, title: str) -> str:
    """Render a :class:`~repro.sim.session.SessionResult` as one report.

    The epoch table (headed by ``title`` and the session's shape), the
    per-server occupancy table of a fleet session, one row per client,
    the fleet summary of a fleet session, and an aggregate line.  A
    client's ``admission`` is its action in the first epoch that decides
    it; its ``fate`` is ``on-time`` or ``late-start`` (``, left`` when
    it left) if it rendered, else ``queued``, ``rejected``, ``left`` or
    ``left (queued)``.
    """
    timeline = result.timeline
    session = timeline.session
    fleet = session.fleet
    n_epochs = len(timeline.epochs)
    heading = (
        f"{title} — session of {len(timeline.clients)} clients, {n_epochs} "
        f"epoch{'' if n_epochs == 1 else 's'} over {timeline.duration_ms:.0f} ms, "
        f"{session.policy} scheduling"
    )
    if fleet is not None:
        heading += f", {fleet.placement} placement"
    tables = [
        format_table(
            ["epoch", "window (ms)", "serviced", "queued"],
            [
                [
                    index,
                    f"{epoch.start_ms:.0f}-{epoch.end_ms:.0f}",
                    _indices(epoch.serviced),
                    _indices(epoch.queued),
                ]
                for index, epoch in enumerate(timeline.epochs)
            ],
            title=heading,
        )
    ]
    if fleet is not None:
        tables.append(
            format_table(
                ["epoch", "server", "load/cap", "clients", "migrated in"],
                [
                    [
                        index,
                        window.server,
                        f"{window.load:g}/{window.capacity:g}",
                        _indices(window.clients),
                        _indices(window.migrated_in),
                    ]
                    for index, epoch in enumerate(timeline.epochs)
                    for window in epoch.servers
                ],
                title="per-server occupancy (down servers have no row)",
            )
        )
    headers = ["client", "app", "profile", "MHz", "join (ms)", "admission",
               "start (ms)", "fate", "frames", "e1 (deg)", "FPS", "latency (ms)"]
    if fleet is not None:
        headers += ["servers", "migr"]
    admission: dict[int, str] = {}
    for epoch in timeline.epochs:
        for decision in epoch.decisions:
            admission.setdefault(decision.client_index, decision.action)
    rows = []
    for client in timeline.clients:
        platform = client.spec.resolved_platform(session.platform)
        network = platform.network
        row = [
            client.index,
            client.spec.app,
            getattr(network, "name", type(network).__name__),
            f"{platform.gpu.frequency_mhz:.0f}",
            f"{client.joined_ms:.0f}",
            admission.get(client.index, "-"),
        ]
        run = result.result_for(client.index)
        if run is None:
            ever_queued = any(client.index in e.queued for e in timeline.epochs)
            if client.end_ms is not None:
                fate = "left (queued)" if ever_queued else "left"
            else:
                fate = "queued" if ever_queued else "rejected"
            row += ["-", fate, "-", "-", "-", "-"]
        else:
            fate = "late-start" if client.start_ms > client.joined_ms else "on-time"
            if client.end_ms is not None:
                fate += ", left"
            row += [f"{client.start_ms:.0f}", fate, len(run.records),
                    run.mean_e1_deg, run.measured_fps, run.mean_latency_ms]
        if fleet is not None:
            history = "->".join(
                name if name is not None else "~" for _, name in client.servers
            )
            row += [history or "-", client.migrations]
        rows.append(row)
    tables.append(format_table(headers, rows))
    if fleet is not None:
        tables.append(
            format_table(
                ["server", "up (ms)", "mean util", "peak load",
                 "clients", "migr in"],
                [
                    [s.server, f"{s.up_ms:.0f}", s.mean_utilisation, s.peak_load,
                     s.distinct_clients, s.migrations_in]
                    for s in timeline.server_stats
                ],
                title="fleet summary",
            )
        )
    serviced = len(result.per_client)
    tables.append(
        f"aggregate: {result.mean_fps:.1f} FPS mean, "
        f"e1 {result.mean_e1_deg:.1f} deg mean, "
        f"{result.clients_meeting_fps}/{serviced} serviced clients hold 90 Hz"
    )
    return "\n".join(tables)


def format_series(label: str, values: Sequence[float], per_line: int = 10) -> str:
    """Render a numeric series compactly (for Fig. 14-style traces)."""
    lines = [f"{label}:"]
    for start in range(0, len(values), per_line):
        chunk = values[start : start + per_line]
        lines.append("  " + " ".join(f"{v:7.2f}" for v in chunk))
    return "\n".join(lines)


def _indices(values: Sequence[int]) -> str:
    return ",".join(str(i) for i in values) or "-"


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
