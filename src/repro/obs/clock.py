"""The single sanctioned host-clock site.

Results must be a function of the spec alone, so the determinism
analyzer (DET002, see ``docs/determinism.md``) flags every wall-clock
read in the tree.  The reads that legitimately remain — reporting-only
timers and trace timestamps — all route through this module, which
carries the one ledgered DET002 exception in ``repro-lint.toml``
(``sanctioned_paths``) instead of scattering per-site suppressions.

Nothing returned from these helpers may enter a result object: host
time is observability input only.  The three helpers mirror the three
reasons the stack looks at the host:

- :func:`wall_s` — epoch seconds, comparable across processes (trace
  anchors).
- :func:`monotonic_s` — monotonic seconds within one process (span
  timestamps).
- :func:`perf_s` — the highest-resolution monotonic clock (reporting
  timers and benchmark legs).
"""

from __future__ import annotations

import time

__all__ = ["monotonic_s", "perf_s", "wall_s"]


def wall_s() -> float:
    """Epoch seconds; the only clock comparable across processes."""
    return time.time()


def monotonic_s() -> float:
    """Monotonic seconds; immune to wall-clock steps, per process."""
    return time.monotonic()


def perf_s() -> float:
    """Highest-resolution monotonic seconds, for reporting-only timers."""
    return time.perf_counter()
