"""Sharded batch execution with spill-to-disk result streams.

This is the one execution substrate underneath :class:`~repro.sim.runner.
BatchEngine`, from a serial sweep to a population-scale one: the spec
list is partitioned into contiguous **shards**, and every completed run
can be **streamed to disk** as an append-only pickle frame in a
per-shard result file — so a 10k-spec sweep executes in memory bounded
by one shard, an interrupted sweep resumes from the spill files, and a
killed worker's shard is requeued and re-executed without losing the
frames it already wrote.

Two execution modes share one on-disk protocol (:class:`ResultStream`):

* ``process`` (the default) — with one worker, shards run one after
  another in this process (the serial case and the reference order);
  with more, every shard is submitted to a ``concurrent.futures``
  process pool, which runs each wherever a process is free, and shards
  are read back in completion order.  In-process execution spills only
  when a stream directory is given: without one nothing could resume
  from the spill, so frames are yielded straight from execution;
* ``subprocess`` — the simulated multi-machine mode: independent
  ``python -m repro.sim.shard`` worker processes claim shards from the
  spool directory via atomic claim files, heartbeat while executing,
  and steal unclaimed shards from the tail once their own partition is
  drained.  The parent requeues any shard whose claimant died or whose
  heartbeat went stale, so a ``SIGKILL``-ed worker's shard is stolen
  and re-executed — deterministically, because every run derives all
  randomness from its spec.

Determinism contract: shard planning is a pure function of the spec
list, frames within a shard are written in spec order, and each run is
bit-reproducible from its spec — so the stream decodes to identical
results at any shard count, worker count and mode, and across
crash/requeue or interrupt/resume cycles.  A resumed shard file is
byte-identical to an uninterrupted run's at the same worker count (a
frame pickled in this process shares strings between its spec and
result that a worker's frame does not, so the two differ in bytes).
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.obs import clock as obs_clock
from repro.obs import trace as obs_trace
from repro.sim.metrics import SimulationResult
from repro.sim.runner import RunSpec, run, spec_key, spec_keys

__all__ = [
    "Shard",
    "ShardStats",
    "ShardedExecutor",
    "ResultStream",
    "SHARD_MODES",
    "plan_shards",
]

#: Execution modes of the sharded executor (see the module docstring).
SHARD_MODES = ("process", "subprocess")

#: Heartbeat period (seconds) subprocess workers refresh their claim at.
DEFAULT_HEARTBEAT_S = 1.0

#: A claim whose heartbeat is older than this many periods is stale.
_STALE_HEARTBEATS = 4

#: Test hook: sleep this many milliseconds after each spec execution in a
#: subprocess worker, widening the mid-shard window fault tests kill in.
_DELAY_ENV = "REPRO_SHARD_SPEC_DELAY_MS"

#: What a torn or garbage frame tail surfaces as: the pickle machinery
#: raises different exception types depending on where the bytes were cut
#: (mid-length prefix, unknown opcode, bad protocol marker, missing
#: global), and all of them mean the same thing here — end of the valid
#: prefix.
_TORN_FRAME_ERRORS = (
    EOFError,
    pickle.UnpicklingError,
    AttributeError,
    ValueError,
    IndexError,
    KeyError,
)


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
    """Content hash binding a result stream to one (spec list, shards) plan."""
    hasher = hashlib.sha256()
    hasher.update(str(shards).encode())
    for key in spec_keys(specs):
        hasher.update(key.encode())
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# The on-disk result stream
# ---------------------------------------------------------------------------


class ResultStream:
    """Append-only per-shard result files with a manifest index.

    Layout of the stream directory::

        manifest.json       the shard plan: n_shards, spec count, digest
        shard-0007.spec     pickled Shard (subprocess workers read these)
        shard-0007.part     in-progress frames (appended, flushed per spec)
        shard-0007.results  completed shard (atomic rename of the .part)
        shard-0007.claim    subprocess-mode ownership + heartbeat (mtime)
        shard-0007.owner    who completed the shard (provenance)

    Each frame is one ``pickle.dump((spec, result))``, written in spec
    order and flushed immediately, so readers observe a valid prefix at
    every instant and a truncated tail (from a crash mid-write) is
    detected and discarded on the next scan.
    """

    MANIFEST = "manifest.json"

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

    def spec_path(self, index: int) -> Path:
        """Pickled spec list for shard ``index``."""
        return self.directory / f"shard-{index:04d}.spec"

    def claim_path(self, index: int) -> Path:
        """Work-stealing claim marker for shard ``index``."""
        return self.directory / f"shard-{index:04d}.claim"

    def owner_path(self, index: int) -> Path:
        """Claim-owner record for shard ``index``."""
        return self.directory / f"shard-{index:04d}.owner"

    # -- manifest ------------------------------------------------------------

    def write_manifest(self, shards: Sequence[Shard], digest: str) -> None:
        """Record the shard plan; validate instead when one already exists.

        A stream directory is bound to exactly one plan: resuming with a
        different spec list or shard count would silently interleave two
        sweeps' results, so a digest mismatch fails loudly.
        """
        path = self.directory / self.MANIFEST
        payload = {
            "version": 1,
            "n_shards": len(shards),
            "n_specs": sum(len(s) for s in shards),
            "digest": digest,
        }
        if path.exists():
            existing = json.loads(path.read_text())
            if existing.get("digest") != digest:
                raise ConfigurationError(
                    f"result stream at {self.directory} was created for a "
                    "different sweep (spec list or shard count changed); "
                    "use a fresh stream directory per sweep configuration"
                )
            return
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, path)

    def manifest(self) -> dict | None:
        """The recorded shard plan, or None for a fresh directory."""
        path = self.directory / self.MANIFEST
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # -- shard spec spool (subprocess mode) -----------------------------------

    def write_shard_specs(self, shards: Sequence[Shard]) -> None:
        """Spool each shard's spec list for subprocess workers to claim."""
        for shard in shards:
            path = self.spec_path(shard.index)
            if path.exists():
                continue
            tmp = path.with_suffix(".tmp")
            with tmp.open("wb") as handle:
                pickle.dump(shard, handle)
            os.replace(tmp, path)

    def load_shard(self, index: int) -> Shard:
        """Load one spooled shard description."""
        with self.spec_path(index).open("rb") as handle:
            shard = pickle.load(handle)
        if not isinstance(shard, Shard) or shard.index != index:
            raise ConfigurationError(
                f"corrupt shard spool entry {self.spec_path(index)}"
            )
        return shard

    def _indices(self, suffix: str) -> list[int]:
        return sorted(
            int(path.stem.split("-")[1])
            for path in self.directory.glob(f"shard-*{suffix}")
        )

    def spooled_indices(self) -> list[int]:
        """Indices of every spooled shard, ascending."""
        return self._indices(".spec")

    # -- completion state ------------------------------------------------------

    def completed_shards(self) -> list[int]:
        """Indices of shards whose result files are complete, ascending."""
        return self._indices(".results")

    def is_complete(self, index: int) -> bool:
        """True when shard ``index`` has a completed results file."""
        return self.results_path(index).exists()

    # -- reading ---------------------------------------------------------------

    @staticmethod
    def _iter_frames(path: Path) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Yield the valid frame prefix of one shard file, one at a time."""
        try:
            handle = path.open("rb")
        except OSError:
            return
        with handle:
            while True:
                try:
                    frame = pickle.load(handle)
                except _TORN_FRAME_ERRORS:
                    return
                if not isinstance(frame, tuple) or len(frame) != 2:
                    return
                yield frame

    def iter_shard(self, index: int) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Yield one completed shard's ``(spec, result)`` frames in order."""
        yield from self._iter_frames(self.results_path(index))

    def iter_results(self) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Yield every completed frame, shard by shard, lazily from disk."""
        for index in self.completed_shards():
            yield from self.iter_shard(index)

    def __len__(self) -> int:
        """Completed frames on disk (consumes only counters, not results)."""
        return sum(1 for _ in self.iter_results())


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
            except _TORN_FRAME_ERRORS:
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
    shard: Shard,
    writer: _ShardWriter | None,
    engine: str | None,
    after_spec: Callable[[], None] | None = None,
) -> Iterator[tuple[RunSpec, SimulationResult]]:
    """Execute one shard's remaining specs, yielding each frame as it lands.

    The per-shard loop of every mode.  With a ``writer``, execution
    starts after its salvaged prefix, each frame is spilled before it is
    yielded, and the shard's results file is published once the last
    spec lands; without one nothing touches disk.  An engine override
    rewrites how each spec executes; the *requested* spec is what is
    yielded and spilled, so stream contents are override-invariant.
    With tracing on, each spec runs under a ``shard.execute`` span keyed
    by shard ordinal + spec key.  ``after_spec`` runs once each frame
    has been consumed (a subprocess worker's heartbeat).
    """
    tracer = obs_trace.active()
    start = 0 if writer is None else writer.start
    try:
        for spec in shard.specs[start:]:
            job = spec if engine is None else replace(spec, engine=engine)
            key = (shard.index, spec_key(job)) if tracer.enabled else None
            with tracer.span("shard.execute", key=key, shard=shard.index):
                result = run(job)
            if writer is not None:
                writer.append(spec, result)
            yield spec, result
            if after_spec is not None:
                after_spec()
    except BaseException:
        if writer is not None:
            writer.close(completed=False)
        raise
    if writer is not None:
        writer.close(completed=True)


def _execute_shard(
    shard: Shard,
    stream_dir: str | os.PathLike,
    engine: str | None,
    after_spec: Callable[[], None] | None = None,
    trace_dir: str | None = None,
) -> tuple[int, int, int]:
    """Run one shard to its spill file; returns (index, salvaged, executed).

    Every spilled shard runs through here, in this process or a worker.
    Skips work already on disk: a completed shard is a no-op, a partial
    ``.part`` file resumes after its salvaged prefix.  With ``trace_dir`` set, a fork-safe
    per-process tracer records the shard's spans and instants.
    """
    obs_trace.ensure(trace_dir)
    stream = ResultStream(stream_dir)
    if stream.is_complete(shard.index):
        return shard.index, 0, 0
    writer = _ShardWriter(stream, shard)
    for _ in _shard_frames(shard, writer, engine, after_spec):
        pass
    return shard.index, writer.start, len(shard.specs) - writer.start


# ---------------------------------------------------------------------------
# Executor statistics
# ---------------------------------------------------------------------------


@dataclass
class ShardStats:
    """Accounting of one sharded execution."""

    shards: int = 0
    specs: int = 0
    executed: int = 0
    salvaged: int = 0
    skipped_shards: int = 0
    requeues: int = 0
    workers: int = 0
    inline_fallback: int = 0


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
        Concurrent workers.  One ``process``-mode worker (or a single
        pending shard) runs the shards in this process.
    mode:
        One of :data:`SHARD_MODES`.
    stream_dir:
        Directory for the :class:`ResultStream`.  Reusing a directory
        resumes the identical sweep: completed shards are skipped, a
        partial shard resumes after its salvaged prefix.  None spills
        multi-worker runs through a temporary directory and keeps
        in-process runs off disk entirely.
    engine:
        Optional execution-engine override (``"vector"`` / ``"scalar"``)
        applied at execution only; streamed frames keep requested specs.
    heartbeat_s:
        Subprocess-mode heartbeat period; a claim is considered stale —
        and its shard requeued for stealing — after four missed beats.
    """

    def __init__(
        self,
        shards: int = 4,
        workers: int = 1,
        mode: str = "process",
        stream_dir: str | os.PathLike | None = None,
        engine: str | None = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    ) -> None:
        if mode not in SHARD_MODES:
            raise ConfigurationError(
                f"unknown shard mode {mode!r}; known: {SHARD_MODES}"
            )
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if heartbeat_s <= 0:
            raise ConfigurationError("heartbeat_s must be > 0")
        self.shards = shards
        self.workers = workers
        self.mode = mode
        self.engine = engine
        self.heartbeat_s = heartbeat_s
        self._stream_dir = stream_dir
        self._tempdir = None
        self.stats = ShardStats()
        self.stream: ResultStream | None = None

    def _resolve_stream(self) -> ResultStream:
        if self._stream_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="qvr-shards-")
            self._stream_dir = self._tempdir.name
        self.stream = ResultStream(self._stream_dir)
        return self.stream

    def cleanup(self) -> None:
        """Remove the temporary stream directory, when this executor owns one."""
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def _in_process(self, n_shards: int) -> bool:
        """Whether ``n_shards`` pending shards run in this process."""
        return self.mode == "process" and (self.workers == 1 or n_shards == 1)

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
        self.stats.shards = len(planned)
        self.stats.specs = sum(len(s) for s in planned)
        if not planned:
            return
        if self._stream_dir is None and self._in_process(len(planned)):
            self.stats.workers = 1
            for shard in planned:
                for frame in _shard_frames(shard, None, self.engine):
                    self.stats.executed += 1
                    yield frame
            return
        stream = self._resolve_stream()
        digest = _plan_digest([s for shard in planned for s in shard.specs], len(planned))
        stream.write_manifest(planned, digest)

        done = set(stream.completed_shards())
        pending = [shard for shard in planned if shard.index not in done]
        self.stats.skipped_shards = len(planned) - len(pending)
        for index in sorted(done):
            yield from stream.iter_shard(index)
        if not pending:
            return
        if self._in_process(len(pending)):
            self.stats.workers = 1
            runner = (
                self._tally(_execute_shard(shard, stream.directory, self.engine))
                for shard in pending
            )
        elif self.mode == "process":
            runner = self._run_pool(pending)
        else:
            runner = self._run_subprocess(pending)
        for index in runner:
            yield from stream.iter_shard(index)

    def _tally(self, outcome: tuple[int, int, int]) -> int:
        """Account one :func:`_execute_shard` outcome; returns its index."""
        index, salvaged, executed = outcome
        self.stats.salvaged += salvaged
        self.stats.executed += executed
        return index

    # -- process pool ----------------------------------------------------------

    def _run_pool(self, pending: list[Shard]) -> Iterator[int]:
        """Run every pending shard on a process pool; yield indices as they finish.

        All shards are submitted up front and the pool runs each wherever
        a process is free, so no worker idles while a shard is queued.
        """
        workers = min(self.workers, len(pending))
        self.stats.workers = workers
        trace_dir = obs_trace.active().directory
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [
                pool.submit(
                    _execute_shard,
                    shard,
                    str(self.stream.directory),
                    self.engine,
                    trace_dir=trace_dir,
                )
                for shard in pending
            ]
            for future in concurrent.futures.as_completed(futures):
                yield self._tally(future.result())
        finally:
            # An abandoned sweep must not wait for its queued shards to run.
            pool.shutdown(cancel_futures=True)

    # -- subprocess (simulated multi-machine) -----------------------------------

    def _run_subprocess(self, pending: list[Shard]) -> Iterator[int]:
        """Spool shards, launch claim-based workers, police heartbeats.

        The parent's only runtime roles are liveness and completion: it
        requeues shards whose claimant died or stopped heartbeating (the
        surviving workers then steal them), and falls back to in-process
        execution if every worker has exited with work still pending, so
        the sweep always completes.
        """
        stream = self.stream
        stream.write_shard_specs(pending)
        salvaged = {shard.index: _valid_prefix(stream, shard)[0] for shard in pending}
        self.stats.salvaged += sum(salvaged.values())
        workers = min(self.workers, len(pending))
        self.stats.workers = workers
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        command = [
            sys.executable, "-m", "repro.sim.shard",
            "--spool", str(stream.directory),
            "--workers", str(workers),
            "--heartbeat", str(self.heartbeat_s),
        ]
        if self.engine is not None:
            command += ["--engine", self.engine]
        if obs_trace.active().directory is not None:
            command += ["--trace", obs_trace.active().directory]
        procs = [
            subprocess.Popen(command + ["--worker-id", str(worker)], env=env)
            for worker in range(workers)
        ]
        stale_after = self.heartbeat_s * _STALE_HEARTBEATS
        remaining = {shard.index: shard for shard in pending}
        try:
            while remaining:
                for index in sorted(remaining):
                    if stream.is_complete(index):
                        shard = remaining.pop(index)
                        self.stats.executed += len(shard.specs) - salvaged[index]
                        yield index
                if not remaining:
                    break
                self._requeue_stale(remaining, stale_after)
                if all(proc.poll() is not None for proc in procs):
                    # Every worker exited; run what is left ourselves.
                    leftovers = [
                        remaining[index]
                        for index in sorted(remaining)
                        if not stream.is_complete(index)
                    ]
                    for shard in leftovers:
                        stream.claim_path(shard.index).unlink(missing_ok=True)
                        obs_trace.active().instant(
                            "shard.fallback", key=("fallback", shard.index),
                            shard=shard.index,
                        )
                        _, _, executed = _execute_shard(
                            shard, stream.directory, self.engine,
                            trace_dir=obs_trace.active().directory,
                        )
                        self.stats.executed += executed
                        self.stats.inline_fallback += 1
                        _write_owner(stream, shard.index, "parent")
                        del remaining[shard.index]
                        yield shard.index
                    break
                time.sleep(min(0.05, self.heartbeat_s / 4))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def _requeue_stale(self, remaining: dict[int, Shard], stale_after: float) -> None:
        """Release claims whose owner died or whose heartbeat went stale."""
        now = obs_clock.wall_s()
        for index in list(remaining):
            claim = self.stream.claim_path(index)
            if self.stream.is_complete(index) or not claim.exists():
                continue
            try:
                payload = json.loads(claim.read_text())
                pid = int(payload.get("pid", -1))
                beat = claim.stat().st_mtime
            except (OSError, ValueError):
                continue  # torn claim write; judge it next poll
            dead = not _pid_alive(pid)
            if dead or now - beat > stale_after:
                claim.unlink(missing_ok=True)
                self.stats.requeues += 1
                obs_trace.active().instant(
                    "shard.requeue", key=("requeue", index, self.stats.requeues),
                    shard=index, owner_pid=pid, dead=dead,
                )


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _write_owner(stream: ResultStream, index: int, owner: str) -> None:
    try:
        stream.owner_path(index).write_text(owner + "\n")
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Subprocess worker entry point (``python -m repro.sim.shard``)
# ---------------------------------------------------------------------------


def _claim(stream: ResultStream, index: int, worker: int) -> bool:
    """Atomically claim one shard; False when another worker holds it."""
    try:
        fd = os.open(stream.claim_path(index), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as handle:
        json.dump({"pid": os.getpid(), "worker": worker}, handle)
    return True


def _next_claimable(stream: ResultStream, worker: int, workers: int) -> tuple[int, bool] | None:
    """The next shard this worker should take, and whether it is a steal.

    Own-partition shards (``index % workers == worker``) come first in
    ascending order; once the partition is drained, unclaimed shards are
    stolen from the tail (descending index) — the work-stealing
    discipline that keeps every machine busy through stragglers.
    """
    spooled = stream.spooled_indices()
    candidates = [i for i in spooled if not stream.is_complete(i) and not stream.claim_path(i).exists()]
    own = [i for i in candidates if i % workers == worker]
    if own:
        return own[0], False
    if candidates:
        return candidates[-1], True
    return None


def worker_main(argv: list[str] | None = None) -> int:
    """Claim-execute-heartbeat loop of one subprocess shard worker."""
    import argparse

    parser = argparse.ArgumentParser(description=worker_main.__doc__)
    parser.add_argument("--spool", required=True, help="stream/spool directory")
    parser.add_argument("--worker-id", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--engine", default=None)
    parser.add_argument("--heartbeat", type=float, default=DEFAULT_HEARTBEAT_S)
    parser.add_argument("--trace", default=None, help="obs trace directory")
    args = parser.parse_args(argv)

    label = f"worker-{args.worker_id}"
    tracer = obs_trace.ensure(args.trace, process=label)
    stream = ResultStream(args.spool)
    delay_ms = float(os.environ.get(_DELAY_ENV, "0") or "0")
    last_beat = obs_clock.monotonic_s()

    def heartbeat_for(index: int) -> Callable[[], None]:
        """Build the per-spec liveness callback for shard ``index``."""
        claim = stream.claim_path(index)

        def beat() -> None:
            """Touch the claim mtime to signal this worker is alive."""
            nonlocal last_beat
            now = obs_clock.monotonic_s()
            if now - last_beat >= args.heartbeat / 2:
                try:
                    os.utime(claim)
                except OSError:
                    pass
                last_beat = now
                tracer.instant("shard.heartbeat", shard=index, worker=args.worker_id)
            if delay_ms > 0.0:
                time.sleep(delay_ms / 1000.0)

        return beat

    while True:
        claimable = _next_claimable(stream, args.worker_id, args.workers)
        if claimable is None:
            obs_trace.shutdown()
            return 0
        index, stolen = claimable
        if not _claim(stream, index, args.worker_id):
            continue  # lost the race; look again
        tracer.instant(
            "shard.claim", key=("claim", index, args.worker_id),
            shard=index, worker=args.worker_id, stolen=stolen,
        )
        if stolen:
            tracer.instant(
                "shard.steal", key=("steal", index),
                shard=index, worker=args.worker_id,
            )
        try:
            shard = stream.load_shard(index)
            _execute_shard(
                shard, stream.directory, args.engine,
                after_spec=heartbeat_for(index), trace_dir=args.trace,
            )
            _write_owner(stream, index, label)
        finally:
            stream.claim_path(index).unlink(missing_ok=True)


if __name__ == "__main__":  # pragma: no cover — exercised via subprocess tests
    # `python -m repro.sim.shard` loads this file as ``__main__``; delegate to
    # the canonically imported module so pickled Shard objects (restored as
    # ``repro.sim.shard.Shard``) pass the isinstance checks in load_shard.
    from repro.sim.shard import worker_main as _canonical_worker_main

    raise SystemExit(_canonical_worker_main())
