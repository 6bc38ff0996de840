"""Sharded batch execution, in this process or on a process pool.

This is the one execution substrate underneath :class:`~repro.sim.runner.
BatchEngine`, from a serial sweep to a population-scale one: the spec
list is partitioned into contiguous **shards**.

With one worker (or a single shard), shards run one after another in
this process (the serial case and the reference order) and each frame
is yielded as it executes; nothing spills.  With more, every shard is
submitted to a ``concurrent.futures`` process pool, which runs each
wherever a process is free.  A worker writes its shard's results to a
**spill file**, the parent reads each finished file back in completion
order, and the temporary directory holding the spills is removed when
the batch ends: spills only carry a worker's results to the parent.

Every run is put into the engine's
:class:`~repro.sim.runner.ResultCache`, when it has one, where it
executes — in this process or in a pool worker — so an interrupted or
killed batch keeps every run that finished, and a rerun at any shard or
worker count executes only the specs the cache lacks.  A worker that
dies breaks the pool: the shards it left unfinished then re-run live in
this process from their first spec.

Determinism contract: shard planning is a pure function of the spec
list and each run is bit-reproducible from its spec, so results are
identical at any shard count and worker count, and across interrupts.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.obs import trace as obs_trace
from repro.sim.metrics import SimulationResult
from repro.sim.runner import (
    _UNPICKLE_ERRORS,
    BatchStats,
    ResultCache,
    RunSpec,
    _check_engine,
    run,
    spec_key,
)

__all__ = [
    "Shard",
    "ShardedExecutor",
    "SHARD_MODES",
    "plan_shards",
]

#: Execution modes :class:`~repro.sim.runner.BatchEngine` accepts; the
#: process pool (in-process with one worker) is the only one.
SHARD_MODES = ("process",)


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of a sweep's spec list."""

    index: int
    specs: tuple[RunSpec, ...]

    def __len__(self) -> int:
        return len(self.specs)


def plan_shards(specs: Sequence[RunSpec], shards: int) -> tuple[Shard, ...]:
    """Partition ``specs`` into at most ``shards`` contiguous shards.

    A pure function of the inputs: sizes differ by at most one (the
    remainder lands on the leading shards), order is preserved, and a
    request for more shards than specs degrades to one-spec shards —
    empty shards are never produced, so every planned shard does work.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    specs = list(specs)
    if not specs:
        return ()
    shards = min(shards, len(specs))
    base, extra = divmod(len(specs), shards)
    planned = []
    cursor = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        planned.append(Shard(index=index, specs=tuple(specs[cursor : cursor + size])))
        cursor += size
    return tuple(planned)


# ---------------------------------------------------------------------------
# Shard execution (shared by every path)
# ---------------------------------------------------------------------------


def _shard_frames(
    shard: Shard, cache: ResultCache | None, engine: str
) -> Iterator[tuple[RunSpec, SimulationResult]]:
    """Execute one shard's specs, yielding each frame as it lands.

    The per-shard loop of every execution path, in this process or in a
    pool worker.  Each spec runs on ``engine``, and with a ``cache`` its
    result is put there before it is yielded, so a batch stopped at any
    point keeps every run that finished.  With tracing on, each spec
    runs under a ``shard.execute`` span keyed by shard ordinal + spec
    key.
    """
    tracer = obs_trace.active()
    for spec in shard.specs:
        key = (shard.index, spec_key(spec)) if tracer.enabled else None
        with tracer.span("shard.execute", key=key, shard=shard.index):
            result = run(spec, engine)
        if cache is not None:
            cache.put(spec, result)
        yield spec, result


def _execute_shard(
    shard: Shard,
    spill_dir: str,
    cache: ResultCache | None,
    engine: str,
    trace_dir: str | None = None,
) -> Path:
    """Run one shard in a pool worker; returns its spill file.

    The file holds one pickled result per spec, in shard order; the
    parent reads it only once this function has returned.  With
    ``trace_dir`` set, a fork-safe per-process tracer records the
    shard's spans and instants.
    """
    obs_trace.ensure(trace_dir)
    path = Path(spill_dir, f"shard-{shard.index:04d}.results")
    with path.open("wb") as handle:
        for _, result in _shard_frames(shard, cache, engine):
            pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def _read_spill(
    path: Path, shard: Shard
) -> Iterator[tuple[RunSpec, SimulationResult]]:
    """Yield a finished shard's spilled results, paired with its specs.

    The file is read to its end: a damaged frame, a missing one, or
    bytes after the last raise :class:`~repro.errors.ReproError` instead
    of silently ending the shard early.
    """
    with path.open("rb") as handle:
        for position, spec in enumerate(shard.specs):
            try:
                result = pickle.load(handle)
            except _UNPICKLE_ERRORS as exc:
                raise ReproError(f"{path}: frame {position} is damaged") from exc
            if not isinstance(result, SimulationResult):
                raise ReproError(f"{path}: frame {position} is not a result")
            yield spec, result
        if handle.read(1):
            raise ReproError(f"{path}: bytes after the last of {len(shard)} frames")


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class ShardedExecutor:
    """Execution of spec shards, in this process or on a process pool.

    Parameters
    ----------
    shards:
        Target shard count (capped at the spec count).
    workers:
        Concurrent workers.  One worker (or a single shard) runs the
        shards in this process; more run them on a process pool.
    stream_dir:
        Where pool runs spill: each run's spill files live in a
        temporary directory inside it, removed when the run ends.  None
        uses the system's temporary directory.  In-process runs never
        spill.
    engine:
        Execution engine (:data:`~repro.sim.runner.ENGINE_NAMES`) every
        shard runs its specs on.
    stats:
        The :class:`~repro.sim.runner.BatchStats` every execution adds
        its shard counts and its executed specs to; a
        :class:`~repro.sim.runner.BatchEngine` passes its own.  None
        starts a fresh account.
    cache:
        The :class:`~repro.sim.runner.ResultCache` each run is put into
        where it executes; a :class:`~repro.sim.runner.BatchEngine`
        passes its own.  None keeps results off disk.
    """

    def __init__(
        self,
        shards: int = 4,
        workers: int = 1,
        stream_dir: str | os.PathLike | None = None,
        engine: str = "vector",
        stats: BatchStats | None = None,
        cache: ResultCache | None = None,
    ) -> None:
        _check_engine(engine)
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.shards = shards
        self.workers = workers
        self.stream_dir = stream_dir
        self.engine = engine
        self.stats = stats if stats is not None else BatchStats()
        self.cache = cache

    # -- public API -----------------------------------------------------------

    def execute(
        self, specs: Iterable[RunSpec]
    ) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Execute specs shard by shard, yielding each spec's frame once.

        In this process, frames are yielded live in spec order.  On the
        pool they are read back from the spill files (memory stays
        bounded by one result plus whatever the consumer retains) in
        shard *completion* order, which is timing-dependent — consumers
        key by spec.
        """
        planned = plan_shards(list(specs), self.shards)
        self.stats.shards += len(planned)
        self.stats.shard_specs += sum(len(s) for s in planned)
        if not planned:
            return
        if self.workers == 1 or len(planned) == 1:
            self.stats.workers = max(self.stats.workers, 1)
            frames = (
                frame
                for shard in planned
                for frame in _shard_frames(shard, self.cache, self.engine)
            )
        else:
            frames = self._run_pool(planned)
        for frame in frames:
            self.stats.executed += 1
            yield frame

    # -- process pool ----------------------------------------------------------

    def _run_pool(
        self, planned: tuple[Shard, ...]
    ) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Run every shard on a process pool; yield frames as shards finish.

        All shards are submitted up front and the pool runs each wherever
        a process is free, so no worker idles while a shard is queued.
        A worker that dies breaks the pool, which fails every shard it
        had not finished with ``BrokenProcessPool``.  Once the pool's
        processes are joined, each such shard is requeued: it re-runs
        live in this process from its first spec.  Any other worker
        exception propagates.  The spill directory is removed however
        the run ends.
        """
        # Imported here so serial runs never load multiprocessing.
        from concurrent.futures.process import BrokenProcessPool

        workers = min(self.workers, len(planned))
        self.stats.workers = max(self.stats.workers, workers)
        tracer = obs_trace.active()
        if self.stream_dir is not None:
            os.makedirs(self.stream_dir, exist_ok=True)
        broken = []
        with tempfile.TemporaryDirectory(
            prefix="qvr-shards-", dir=self.stream_dir
        ) as spill_dir:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
            try:
                futures = {
                    pool.submit(
                        _execute_shard, shard, spill_dir, self.cache, self.engine,
                        trace_dir=tracer.directory,
                    ): shard
                    for shard in planned
                }
                for future in concurrent.futures.as_completed(futures):
                    try:
                        path = future.result()
                    except BrokenProcessPool:
                        broken.append(futures[future])
                        continue
                    yield from _read_spill(path, futures[future])
            finally:
                # An abandoned sweep must not wait for its queued shards to run.
                pool.shutdown(cancel_futures=True)
        for shard in sorted(broken, key=lambda shard: shard.index):
            self.stats.requeues += 1
            tracer.instant(
                "shard.requeue", key=("requeue", shard.index), shard=shard.index
            )
            yield from _shard_frames(shard, self.cache, self.engine)
