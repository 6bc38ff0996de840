"""Deterministic observability plane: spans, counters, trace export.

The obs package is the one part of the tree that is allowed to look at
the host — and only through :mod:`repro.obs.clock`, the single
sanctioned wall/monotonic-clock site.  Everything else here is plumbing
around that exception:

- :mod:`repro.obs.trace` — process-local spans and instant events with
  deterministic IDs, written as append-only JSONL; a no-op singleton
  when tracing is disabled, so instrumented hot paths cost nothing.
- :mod:`repro.obs.metrics` — counters and gauges with mergeable
  snapshots.
- :mod:`repro.obs.sinks` — the JSONL event stream, torn-tail salvage,
  cross-process merge (clock-offset reconciliation), and Chrome
  trace-event export loadable in Perfetto.
- :mod:`repro.obs.report` — stage-level latency/utilization breakdown
  tables and a standalone HTML timeline for a trace directory.

Instrumentation only ever *reads* simulation state: results are
bit-identical with tracing on or off at any shard/worker count (the
parity suite in ``tests/obs`` asserts this), and the disabled-mode
overhead of the no-op path is gated in CI by the ``obs-overhead``
benchmark leg.  See ``docs/observability.md``.
"""

from repro.obs import clock, metrics, trace

__all__ = ["clock", "metrics", "trace"]
