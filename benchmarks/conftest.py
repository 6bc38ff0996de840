"""Shared benchmark configuration.

Each benchmark regenerates one paper table/figure.  The experiments are
deterministic simulations, so a single measured round per benchmark is
both sufficient and what keeps the full suite's runtime reasonable.

All simulation-backed benchmarks share one session-scoped
:class:`~repro.sim.runner.BatchEngine` with an on-disk cache, so runs
that recur across figures (Table 4 and Fig. 15 share their Q-VR grid;
the ablation reuses Fig. 15's local baselines) execute exactly once per
session.  ``QVR_BENCH_JOBS`` sets the engine's process-pool width
(default 1, keeping single-figure timings comparable across machines);
``QVR_BENCH_CACHE`` pins the cache directory so the warm cache can
persist across pytest sessions.

The directory also holds ``gates.py``, the single-commit timing gates
CI runs with only numpy installed; performance is measured by the
repository benchmark, ``perfbench/run.py``.  The ``paper_benchmark``
fixture degrades to a direct call when pytest-benchmark is absent, so
the suite also runs as plain regression checks in minimal environments.
"""

import os

import pytest

from repro.sim.runner import BatchEngine

try:
    import pytest_benchmark  # noqa: F401

    _HAS_PYTEST_BENCHMARK = True
except ImportError:
    _HAS_PYTEST_BENCHMARK = False


@pytest.fixture(scope="session")
def batch_engine(tmp_path_factory):
    """One warm-cache batch engine shared by every benchmark."""
    cache_dir = os.environ.get("QVR_BENCH_CACHE") or str(
        tmp_path_factory.mktemp("qvr-batch-cache")
    )
    return BatchEngine(
        jobs=int(os.environ.get("QVR_BENCH_JOBS", "1")),
        cache_dir=cache_dir,
    )


@pytest.fixture
def paper_benchmark(request):
    """A pytest-benchmark fixture pinned to one round / one iteration.

    Falls back to calling the function directly (no timing report) when
    pytest-benchmark is not installed, so the benchmarks collect and run
    as plain regression checks in minimal environments.
    """
    if _HAS_PYTEST_BENCHMARK:
        benchmark = request.getfixturevalue("benchmark")

        def run(func, *args, **kwargs):
            return benchmark.pedantic(
                func, args=args, kwargs=kwargs, rounds=1, iterations=1
            )
    else:

        def run(func, *args, **kwargs):
            return func(*args, **kwargs)

    return run
