"""Sharded batch execution with spill-to-disk result streams.

This is the one execution substrate underneath :class:`~repro.sim.runner.
BatchEngine`, from a serial sweep to a population-scale one: the spec
list is partitioned into contiguous **shards**, and every completed run
can be **streamed to disk** as an append-only pickle frame in a
per-shard result file — so a 10k-spec sweep executes in memory bounded
by one shard, an interrupted sweep resumes from the spill files, and a
killed worker's shard is re-executed without losing the frames it
already wrote.

With one worker, shards run one after another in this process (the
serial case and the reference order); with more, every shard is
submitted to a ``concurrent.futures`` process pool, which runs each
wherever a process is free, and shards are read back in completion
order.  A worker that dies breaks the pool: the shards it left
unfinished then run in this process, each resuming after the frames
already spilled to its ``.part`` file.  In-process execution spills
only when a stream directory is given: without one nothing could
resume from the spill, so frames are yielded straight from execution.

Determinism contract: shard planning is a pure function of the spec
list, frames within a shard are written in spec order, and each run is
bit-reproducible from its spec — so the stream decodes to identical
results at any shard count and worker count, and across crash or
interrupt/resume cycles.  The spill bytes are identical too: each frame
pickles a fresh copy of its spec, so no frame shares objects between
spec and result, whichever process wrote it, and a resumed shard file
is byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.obs import trace as obs_trace
from repro.sim.metrics import SimulationResult
from repro.sim.runner import (
    _UNPICKLE_ERRORS,
    BatchStats,
    RunSpec,
    _check_engine,
    run,
    spec_key,
    spec_keys,
)

__all__ = [
    "Shard",
    "ShardedExecutor",
    "ResultStream",
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


def _plan_digest(specs: Sequence[RunSpec], shards: int) -> str:
    """Content hash of one (spec list, shards) plan; it names the plan's stream."""
    hasher = hashlib.sha256()
    hasher.update(str(shards).encode())
    for key in spec_keys(specs):
        hasher.update(key.encode())
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# The on-disk result stream
# ---------------------------------------------------------------------------


class ResultStream:
    """Append-only per-shard result files.

    Layout of one stream's directory (:class:`ShardedExecutor` names it
    by the plan digest, which binds the stream to one shard plan)::

        shard-0007.part     in-progress frames (appended, flushed per spec)
        shard-0007.results  completed shard (atomic rename of the .part)

    Each frame is one ``pickle.dump((spec, result))``, written in spec
    order and flushed immediately, so readers observe a valid prefix at
    every instant and a truncated tail (from a crash mid-write) is
    detected and discarded on the next scan.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def results_path(self, index: int) -> Path:
        """Completed-results file for shard ``index``."""
        return self.directory / f"shard-{index:04d}.results"

    def part_path(self, index: int) -> Path:
        """In-progress partial file for shard ``index``."""
        return self.directory / f"shard-{index:04d}.part"

    # -- completion state ------------------------------------------------------

    def completed_shards(self) -> list[int]:
        """Indices of shards whose result files are complete, ascending."""
        return sorted(
            int(path.stem.split("-")[1])
            for path in self.directory.glob("shard-*.results")
        )

    def is_complete(self, index: int) -> bool:
        """True when shard ``index`` has a completed results file."""
        return self.results_path(index).exists()

    # -- reading ---------------------------------------------------------------

    def iter_shard(self, index: int) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Yield the valid frame prefix of one completed shard, in order."""
        try:
            handle = self.results_path(index).open("rb")
        except OSError:
            return
        with handle:
            while True:
                try:
                    frame = pickle.load(handle)
                except _UNPICKLE_ERRORS:
                    return
                if not isinstance(frame, tuple) or len(frame) != 2:
                    return
                yield frame


def _valid_prefix(stream: ResultStream, shard: Shard) -> tuple[int, int]:
    """Frames and bytes of ``shard``'s resumable ``.part`` prefix.

    The prefix ends at the first torn frame or at the first frame whose
    spec breaks the shard's spec order.
    """
    frames = offset = 0
    try:
        handle = stream.part_path(shard.index).open("rb")
    except OSError:
        return 0, 0
    with handle:
        while frames < len(shard.specs):
            try:
                frame = pickle.load(handle)
            except _UNPICKLE_ERRORS:
                break
            if (
                not isinstance(frame, tuple)
                or len(frame) != 2
                or frame[0] != shard.specs[frames]
            ):
                break
            frames += 1
            offset = handle.tell()
    return frames, offset


class _ShardWriter:
    """Appends one shard's frames, salvaging any valid prefix on resume.

    Opening the writer scans an existing ``.part`` file left by a crashed
    or interrupted run: frames whose specs match the shard's spec order
    are kept (their byte prefix is preserved verbatim, so the final file
    is bit-identical to an uninterrupted run), everything after the first
    mismatch or torn frame is truncated, and execution resumes at
    :attr:`start`.  A salvaged prefix is recorded as a ``shard.resume``
    instant on the active tracer.
    """

    def __init__(self, stream: ResultStream, shard: Shard) -> None:
        self.stream = stream
        self.shard = shard
        self.part = stream.part_path(shard.index)
        self.start, offset = _valid_prefix(stream, shard)
        self._handle = self.part.open("r+b" if self.part.exists() else "wb")
        self._handle.truncate(offset)
        self._handle.seek(offset)
        self._written = self.start
        tracer = obs_trace.active()
        if self.start and tracer.enabled:
            tracer.instant(
                "shard.resume", key=("resume", shard.index, self.start),
                shard=shard.index, salvaged=self.start,
            )

    def append(self, spec: RunSpec, result: SimulationResult) -> None:
        """Append one (spec, result) record and flush it to disk."""
        pickle.dump((spec, result), self._handle, protocol=pickle.HIGHEST_PROTOCOL)
        self._handle.flush()
        self._written += 1

    def close(self, completed: bool) -> None:
        """Close the writer; on completion, publish the results file."""
        self._handle.close()
        if completed:
            if self._written != len(self.shard.specs):
                raise ConfigurationError(
                    f"shard {self.shard.index} closed as complete with "
                    f"{self._written}/{len(self.shard.specs)} frames"
                )
            os.replace(self.part, self.stream.results_path(self.shard.index))


# ---------------------------------------------------------------------------
# Shard execution (shared by every mode)
# ---------------------------------------------------------------------------


def _shard_frames(
    shard: Shard, writer: _ShardWriter | None, engine: str
) -> Iterator[tuple[RunSpec, SimulationResult]]:
    """Execute one shard's remaining specs, yielding each frame as it lands.

    The per-shard loop of every execution path.  With a ``writer``,
    execution starts after its salvaged prefix, each frame is spilled
    before it is yielded, and the shard's results file is published once
    the last spec lands; without one nothing touches disk.  Each spec
    runs on ``engine``; both engines spill the same bytes.  The spilled
    spec is a pickle round-trip copy: a spec this process built can
    share string objects with its result, which a worker's unpickled
    spec never does, and pickle encodes shared objects as
    back-references — the copy makes the frame bytes the same whichever
    process writes them.  With tracing on, each spec runs under a
    ``shard.execute`` span keyed by shard ordinal + spec key.
    """
    tracer = obs_trace.active()
    start = 0 if writer is None else writer.start
    try:
        for spec in shard.specs[start:]:
            key = (shard.index, spec_key(spec)) if tracer.enabled else None
            with tracer.span("shard.execute", key=key, shard=shard.index):
                result = run(spec, engine)
            if writer is not None:
                writer.append(pickle.loads(pickle.dumps(spec)), result)
            yield spec, result
    except BaseException:
        if writer is not None:
            writer.close(completed=False)
        raise
    if writer is not None:
        writer.close(completed=True)


def _execute_shard(
    shard: Shard,
    stream_dir: str | os.PathLike,
    engine: str,
    trace_dir: str | None = None,
) -> tuple[int, int, int]:
    """Run one shard to its spill file; returns (index, salvaged, executed).

    Every spilled shard runs through here, in this process or a worker.
    Skips work already on disk: a completed shard is a no-op, a partial
    ``.part`` file resumes after its salvaged prefix.  With
    ``trace_dir`` set, a fork-safe per-process tracer records the
    shard's spans and instants.
    """
    obs_trace.ensure(trace_dir)
    stream = ResultStream(stream_dir)
    if stream.is_complete(shard.index):
        return shard.index, 0, 0
    writer = _ShardWriter(stream, shard)
    for _ in _shard_frames(shard, writer, engine):
        pass
    return shard.index, writer.start, len(shard.specs) - writer.start


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class ShardedExecutor:
    """Execution of spec shards, in process or on workers, over a result stream.

    Parameters
    ----------
    shards:
        Target shard count (capped at the spec count).
    workers:
        Concurrent workers.  One worker (or a single pending shard) runs
        the shards in this process; more run them on a process pool.
    stream_dir:
        Directory of result streams: each shard plan streams to its own
        :class:`ResultStream` in the subdirectory named by its plan
        digest, so one directory serves every batch of an engine.
        Reusing a directory resumes each identical sweep: completed
        shards are skipped, a partial shard resumes after its salvaged
        prefix.  None spills multi-worker runs through a temporary
        directory and keeps in-process runs off disk entirely.
    engine:
        Execution engine (:data:`~repro.sim.runner.ENGINE_NAMES`) every
        shard runs its specs on.
    stats:
        The :class:`~repro.sim.runner.BatchStats` every execution adds
        its shard counts and its executed and resumed specs to; a
        :class:`~repro.sim.runner.BatchEngine` passes its own.  None
        starts a fresh account.
    """

    def __init__(
        self,
        shards: int = 4,
        workers: int = 1,
        stream_dir: str | os.PathLike | None = None,
        engine: str = "vector",
        stats: BatchStats | None = None,
    ) -> None:
        _check_engine(engine)
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.shards = shards
        self.workers = workers
        self.engine = engine
        self._stream_dir = stream_dir
        self._tempdir = None
        self.stats = stats if stats is not None else BatchStats()
        self.stream: ResultStream | None = None

    def _resolve_stream(self, digest: str) -> ResultStream:
        if self._stream_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="qvr-shards-")
            self._stream_dir = self._tempdir.name
        self.stream = ResultStream(Path(self._stream_dir) / digest)
        return self.stream

    def cleanup(self) -> None:
        """Remove the temporary stream directory, when this executor owns one."""
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def _in_process(self, n_shards: int) -> bool:
        """Whether ``n_shards`` pending shards run in this process."""
        return self.workers == 1 or n_shards == 1

    # -- public API -----------------------------------------------------------

    def execute(
        self, specs: Iterable[RunSpec]
    ) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Execute specs shard by shard, yielding frames as shards complete.

        Each unique spec is yielded exactly once.  Without a stream,
        in-process frames are yielded live as they execute; otherwise
        frames stream lazily from the spill files (memory stays bounded
        by one pickle frame plus whatever the consumer retains), in shard
        *completion* order, which is timing-dependent — consumers key by
        spec, and the on-disk stream itself is deterministic.
        """
        planned = plan_shards(list(specs), self.shards)
        self.stats.shards += len(planned)
        self.stats.shard_specs += sum(len(s) for s in planned)
        if not planned:
            return
        if self._stream_dir is None and self._in_process(len(planned)):
            self.stats.workers = max(self.stats.workers, 1)
            for shard in planned:
                for frame in _shard_frames(shard, None, self.engine):
                    self.stats.executed += 1
                    yield frame
            return
        digest = _plan_digest([s for shard in planned for s in shard.specs], len(planned))
        stream = self._resolve_stream(digest)

        done = set(stream.completed_shards())
        pending = [shard for shard in planned if shard.index not in done]
        for shard in planned:
            if shard.index in done:
                self.stats.resumed_shards += 1
                self.stats.resumed += len(shard.specs)
                yield from stream.iter_shard(shard.index)
        if not pending:
            return
        if self._in_process(len(pending)):
            self.stats.workers = max(self.stats.workers, 1)
            runner = (
                self._tally(_execute_shard(shard, stream.directory, self.engine))
                for shard in pending
            )
        else:
            runner = self._run_pool(pending)
        for index in runner:
            yield from stream.iter_shard(index)

    def _tally(self, outcome: tuple[int, int, int]) -> int:
        """Account one :func:`_execute_shard` outcome; returns its index."""
        index, salvaged, executed = outcome
        self.stats.salvaged += salvaged
        self.stats.resumed += salvaged
        self.stats.executed += executed
        return index

    # -- process pool ----------------------------------------------------------

    def _run_pool(self, pending: list[Shard]) -> Iterator[int]:
        """Run every pending shard on a process pool; yield indices as they finish.

        All shards are submitted up front and the pool runs each wherever
        a process is free, so no worker idles while a shard is queued.
        A worker that dies breaks the pool, which fails every shard it
        had not finished with ``BrokenProcessPool``.  Once the pool's
        processes are joined, a failed shard already complete on disk is
        read back, and every other one is requeued: it runs here,
        resuming after the frames its ``.part`` file already holds.  Any
        other worker exception propagates.
        """
        # Imported here so serial runs never load multiprocessing.
        from concurrent.futures.process import BrokenProcessPool

        workers = min(self.workers, len(pending))
        self.stats.workers = max(self.stats.workers, workers)
        tracer = obs_trace.active()
        directory = str(self.stream.directory)
        broken = []
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {
                pool.submit(
                    _execute_shard, shard, directory, self.engine,
                    trace_dir=tracer.directory,
                ): shard
                for shard in pending
            }
            for future in concurrent.futures.as_completed(futures):
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    broken.append(futures[future])
                    continue
                yield self._tally(outcome)
        finally:
            # An abandoned sweep must not wait for its queued shards to run.
            pool.shutdown(cancel_futures=True)
        for shard in sorted(broken, key=lambda shard: shard.index):
            if self.stream.is_complete(shard.index):
                # A worker published it; its salvage count died with the pool.
                self.stats.executed += len(shard.specs)
            else:
                self.stats.requeues += 1
                tracer.instant(
                    "shard.requeue", key=("requeue", shard.index), shard=shard.index
                )
                self._tally(_execute_shard(
                    shard, directory, self.engine, trace_dir=tracer.directory
                ))
            yield shard.index
