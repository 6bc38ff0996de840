"""Batched experiment execution: one layer from ``RunSpec`` to results.

This module is the single execution surface above
:class:`~repro.sim.systems.VRSystem`.  Everything the reproduction runs —
single comparisons, full figure sweeps, multi-user shared-infrastructure
scenarios — is expressed as frozen :class:`RunSpec` values and executed
through one engine:

* :class:`RunSpec` fully describes a simulation run, including a
  shared client's scheduled shares of the rendering server and the
  session downlink, so a multi-user client is just a spec variant
  rather than a parallel API;
* :class:`Sweep` declaratively expands a parameter grid
  (system x app x platform x seed) into frozen specs;
* :class:`BatchEngine` executes spec batches and memoizes results in an
  on-disk cache keyed by a stable content hash of the spec
  (:func:`spec_key`).

Every batch executes through the sharded executor
(:mod:`repro.sim.shard`): serial execution is its one-worker case, run
in this process; with more jobs the miss list is partitioned into spec
shards for a process pool, every completed run streams to an
append-only spill file, and — via :meth:`BatchEngine.stream_specs` —
``(spec, result)`` pairs are yielded in bounded memory instead of
materializing the whole sweep's output.

Execution is deterministic per spec: every run derives all randomness
from ``spec.seed``, so the same spec produces bit-identical results at
any job count, any shard/worker count, and across cache round-trips.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator

from repro._version import __version__
from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.network.conditions import NetworkConditions
from repro.network.profile import (
    AllocatedProfile,
    NetworkProfile,
    OffsetProfile,
    as_profile,
)
from repro.sim.metrics import DEFAULT_WARMUP, SimulationResult, effective_warmup
from repro.sim.server import POLICY_NAMES, ShareSchedule
from repro.sim.systems import PlatformConfig, SYSTEM_NAMES, make_system
from repro.workloads.apps import VRApp, get_app

__all__ = [
    "RunSpec",
    "Sweep",
    "BatchStats",
    "BatchEngine",
    "ResultCache",
    "run",
    "run_batch",
    "run_comparison",
    "spec_key",
    "speedup_over",
    "effective_warmup",
    "DEFAULT_FRAMES",
    "DEFAULT_WARMUP",
    "ENGINE_NAMES",
]

#: Default frame count for evaluation runs (matches Fig. 14's 300 frames).
DEFAULT_FRAMES = 300

#: Seed stride between co-located clients of one shared scenario.
CLIENT_SEED_STRIDE = 97

#: Execution engines a spec may select.  ``"vector"`` runs the
#: array-programmed kernels (:mod:`repro.sim.kernels`); ``"scalar"`` runs
#: the original per-frame task-graph pipeline as a reference oracle.
#: Both produce bit-identical results, so the choice never enters the
#: cache key (see :data:`_EXECUTION_FIELDS`).
ENGINE_NAMES = ("vector", "scalar")

#: Bump when spec semantics change so stale cache entries never resurface.
#: (v2: network profiles inside PlatformConfig, package version in the key;
#: v3: every field is hashed, and shared specs carry share schedules.)
_SPEC_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class RunSpec:
    """A fully specified simulation run.

    A client of a shared session (:mod:`repro.sim.session`) carries its
    share of the infrastructure as explicit *schedules* emitted by the
    session planner: ``server_allocation`` scales the rendering server's
    throughput over time and ``downlink_allocation`` scales the shared
    link, both as ``(start_ms, share)`` segments.  ``shared_clients`` is
    the peak roster the client shared with (interleaved transfers grow
    link jitter with it), so a spec with ``shared_clients`` > 1 must
    carry a ``server_allocation``.  ``shared_downlink`` scopes the
    network part: a client that brings its own private link (a
    per-client profile) still shares the rendering server but keeps its
    full link capacity, and carries no ``downlink_allocation``.
    ``policy`` names the server scheduling policy the session ran under
    (see :mod:`repro.sim.server`).  Fleet sessions (:mod:`repro.sim.fleet`)
    reuse the two schedules to carry their whole capacity story —
    migration penalties and parked outage spans appear as
    starvation-share segments spliced into the schedule — so a client
    of a failing, autoscaling cluster still freezes to one ordinary,
    cacheable spec.

    ``start_ms`` is the client's service start on the *session* clock —
    nonzero for a client of an event-driven session
    (:mod:`repro.sim.session`) that joined or was promoted out of the
    admission queue mid-session.  The run itself still executes on a
    local clock from 0; the offset shifts how the client samples the
    session's network profile, so a late starter observes the link as it
    is at its start instant.  Allocation schedules are already emitted
    in client-local time by the session planner.

    ``engine`` selects the execution backend: ``"vector"`` (default) runs
    the array-programmed frame kernels, ``"scalar"`` the original
    per-frame task-graph pipeline kept as a reference oracle.  The two
    are bit-identical, so the field is pure execution detail: it is
    excluded from the cache key entirely and both engines' results hash
    to — and satisfy — the same cache entry.
    """

    system: str
    app: str
    platform: PlatformConfig = field(default_factory=PlatformConfig)
    n_frames: int = DEFAULT_FRAMES
    seed: int = 0
    warmup_frames: int = DEFAULT_WARMUP
    shared_clients: int = 1
    shared_downlink: bool = True
    policy: str = "fair-share"
    server_allocation: tuple[tuple[float, float], ...] | None = None
    downlink_allocation: tuple[tuple[float, float], ...] | None = None
    start_ms: float = 0.0
    engine: str = "vector"

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_NAMES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; known: {ENGINE_NAMES}"
            )
        if self.system.lower() not in SYSTEM_NAMES:
            raise ConfigurationError(
                f"unknown system {self.system!r}; known: {SYSTEM_NAMES}"
            )
        if self.n_frames < 1:
            raise ConfigurationError("n_frames must be >= 1")
        if self.warmup_frames < 0:
            raise ConfigurationError("warmup_frames must be >= 0")
        if self.warmup_frames >= self.n_frames:
            raise ConfigurationError(
                f"warmup_frames ({self.warmup_frames}) must be < n_frames "
                f"({self.n_frames}); the warm-up prefix would discard every frame"
            )
        if self.shared_clients < 1:
            raise ConfigurationError("shared_clients must be >= 1")
        if self.start_ms < 0:
            raise ConfigurationError(f"start_ms must be >= 0, got {self.start_ms}")
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown scheduling policy {self.policy!r}; known: {POLICY_NAMES}"
            )
        for name in ("server_allocation", "downlink_allocation"):
            schedule = getattr(self, name)
            if schedule is not None:
                # ShareSchedule validates shape, ordering and positivity,
                # so malformed schedules fail here rather than mid-run.
                ShareSchedule(schedule)
        if self.downlink_allocation is not None and self.server_allocation is None:
            raise ConfigurationError(
                "downlink_allocation requires a server_allocation (schedules "
                "are emitted together by the admission planner)"
            )
        if (
            self.server_allocation is not None
            and self.shared_downlink
            and self.downlink_allocation is None
        ):
            raise ConfigurationError(
                "a scheduled spec on the shared downlink needs a "
                "downlink_allocation too (the planner emits both schedules "
                "together); use shared_downlink=False for a private link"
            )
        if self.shared_clients > 1 and self.server_allocation is None:
            raise ConfigurationError(
                f"a spec shared by {self.shared_clients} clients needs the "
                "server_allocation its session planner emits"
            )

    def effective_platform(self) -> PlatformConfig:
        """The platform this client actually observes.

        A solo spec observes the configured platform unchanged.  A shared
        spec's downlink schedule wraps the network in an
        :class:`~repro.network.profile.AllocatedProfile`, and its server
        schedule rides on the platform for the frame loop to sample.  A
        late starter (``start_ms`` > 0) additionally observes the session
        profile through an :class:`~repro.network.profile.OffsetProfile`,
        so its local clock 0 lands at its session start instant.
        """
        base = self.platform
        network: NetworkConditions | NetworkProfile = base.network
        if self.start_ms > 0:
            network = OffsetProfile(as_profile(network), self.start_ms)
        if self.server_allocation is None:
            return base if network is base.network else replace(base, network=network)
        if self.shared_downlink and self.downlink_allocation is not None:
            network = AllocatedProfile(
                base=as_profile(network),
                segments=self.downlink_allocation,
                n_clients=self.shared_clients,
                label=self.policy,
            )
        return replace(base, network=network, server_schedule=self.server_allocation)


def run(spec: RunSpec) -> SimulationResult:
    """Execute one run specification (deterministic in ``spec``).

    The result is deterministic in the spec's *semantic* fields only:
    both engines produce bit-identical records, so ``spec.engine`` picks
    how the run executes, never what it computes.
    """
    app = get_app(spec.app)
    if spec.engine == "scalar":
        system = make_system(
            spec.system, app, spec.effective_platform(), seed=spec.seed
        )
        return system.run(n_frames=spec.n_frames, warmup_frames=spec.warmup_frames)
    from repro.sim.kernels import run_vectorized

    return run_vectorized(
        spec.system,
        app,
        spec.effective_platform(),
        seed=spec.seed,
        n_frames=spec.n_frames,
        warmup_frames=spec.warmup_frames,
    )


# ---------------------------------------------------------------------------
# Declarative sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """A parameter grid that expands into frozen :class:`RunSpec` values.

    The grid is the cartesian product ``platforms x systems x apps x
    seeds`` (in that deterministic order); scalar fields are shared by
    every expanded spec.  ``warmup_frames=None`` selects the largest
    valid default warm-up for ``n_frames`` (see :func:`effective_warmup`).

    ``profiles`` adds a network-environment axis: each platform is
    crossed with each profile (conditions, profile objects, or registry
    names — see :func:`~repro.network.profile.as_profile`), replacing the
    platform's network, so one sweep covers the same hardware under many
    link dynamics.

    Every expanded spec is a solo run; clients that share a server and a
    link are planned by :class:`~repro.sim.session.Session`, whose
    policies and fleets a grid axis cannot express.
    """

    systems: tuple[str, ...]
    apps: tuple[str, ...]
    platforms: tuple[PlatformConfig, ...] = (PlatformConfig(),)
    seeds: tuple[int, ...] = (0,)
    n_frames: int = DEFAULT_FRAMES
    warmup_frames: int | None = None
    profiles: tuple[NetworkProfile | NetworkConditions | str, ...] | None = None
    engine: str = "vector"

    def __post_init__(self) -> None:
        for name in ("systems", "apps", "platforms", "seeds"):
            if not getattr(self, name):
                raise ConfigurationError(f"sweep dimension {name!r} is empty")
        if self.profiles is not None and not self.profiles:
            raise ConfigurationError("sweep dimension 'profiles' is empty")

    def resolved_platforms(self) -> tuple[PlatformConfig, ...]:
        """The platform axis after crossing with the profile axis."""
        if self.profiles is None:
            return self.platforms
        return tuple(
            replace(platform, network=as_profile(profile))
            for platform in self.platforms
            for profile in self.profiles
        )

    def __len__(self) -> int:
        return (
            len(self.resolved_platforms())
            * len(self.systems)
            * len(self.apps)
            * len(self.seeds)
        )

    def spec(
        self,
        system: str,
        app: str,
        platform: PlatformConfig,
        seed: int = 0,
    ) -> RunSpec:
        """The spec of one grid point (for indexing into batch results)."""
        warmup = (
            effective_warmup(self.n_frames)
            if self.warmup_frames is None
            else self.warmup_frames
        )
        return RunSpec(
            system=system,
            app=app,
            platform=platform,
            n_frames=self.n_frames,
            seed=seed,
            warmup_frames=warmup,
            engine=self.engine,
        )

    def specs(self) -> tuple[RunSpec, ...]:
        """Expand the full grid, in deterministic iteration order."""
        return tuple(
            self.spec(system, app, platform, seed)
            for platform, system, app, seed in itertools.product(
                self.resolved_platforms(), self.systems, self.apps, self.seeds
            )
        )


# ---------------------------------------------------------------------------
# Stable spec hashing and the on-disk result cache
# ---------------------------------------------------------------------------


#: Fields that describe *how* a run executes, not *what* it computes.
#: They are dropped from the canonical form — an engine override must
#: hash to the same key as the default, because both engines produce
#: bit-identical results and must share (and satisfy) the same cache
#: entry.
_EXECUTION_FIELDS: dict[str, frozenset[str]] = {
    "RunSpec": frozenset({"engine"}),
}


def _canonical(value: object) -> object:
    """Recursively convert a spec value into a canonical JSON-able form.

    Floats are rendered with ``float.hex`` so the key captures the exact
    bit pattern; dataclasses carry their type name so two config classes
    with coincidentally equal fields cannot collide.  Every field is
    hashed except the execution-only ones (:data:`_EXECUTION_FIELDS`).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: dict[str, object] = {"__type__": type(value).__name__}
        execution = _EXECUTION_FIELDS.get(type(value).__name__, frozenset())
        for f in dataclasses.fields(value):
            if f.name not in execution:
                out[f.name] = _canonical(getattr(value, f.name))
        return out
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    raise ConfigurationError(
        f"cannot canonicalise {type(value).__name__} inside a RunSpec"
    )


def spec_key(spec: RunSpec) -> str:
    """Stable content hash of a spec (cache key, identical across processes).

    The key mixes in the spec schema version and the package version, so
    cached results produced by an older spec layout or an older release
    (whose models may have changed) invalidate instead of being silently
    reused.
    """
    payload = json.dumps(
        {
            "version": _SPEC_SCHEMA_VERSION,
            "package": __version__,
            "spec": _canonical(spec),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk memoization of completed runs, one pickle per spec hash.

    Entries are written atomically (temp file + rename) so concurrent
    writers — parallel benchmark workers sharing one cache directory —
    can never expose a torn file; unreadable or mismatched entries are
    treated as misses and overwritten.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, spec: RunSpec) -> Path:
        """Cache file path of a spec."""
        return self.directory / f"{spec_key(spec)}.pkl"

    def get(self, spec: RunSpec) -> SimulationResult | None:
        """The memoized result, or None on a miss."""
        path = self.path_for(spec)
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            obs_metrics.counter("runner.cache.miss").inc()
            return None
        if not isinstance(payload, dict) or payload.get("key") != spec_key(spec):
            obs_metrics.counter("runner.cache.miss").inc()
            return None
        obs_metrics.counter("runner.cache.hit").inc()
        return payload.get("result")

    def put(self, spec: RunSpec, result: SimulationResult) -> None:
        """Memoize one completed run."""
        obs_metrics.counter("runner.cache.put").inc()
        payload = {"key": spec_key(spec), "result": result}
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle)
            os.replace(tmp_name, self.path_for(spec))
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise

    def clear(self) -> int:
        """Evict every cached entry; returns how many files were removed.

        Stale entries (older schema or package versions) are unreachable
        anyway — their keys no longer match — but they still occupy disk;
        this is the eviction helper behind ``repro batch --clear-cache``.
        """
        removed = 0
        for path in self.directory.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        obs_metrics.counter("runner.cache.evict").inc(removed)
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))


# ---------------------------------------------------------------------------
# The batch engine
# ---------------------------------------------------------------------------


@dataclass
class BatchStats:
    """Cumulative accounting of an engine's executions and cache traffic."""

    requested: int = 0
    unique: int = 0
    executed: int = 0
    cache_hits: int = 0

    @property
    def deduplicated(self) -> int:
        """Requested specs answered by another spec in the same batch."""
        return self.requested - self.unique


class BatchEngine:
    """Executes batches of :class:`RunSpec` with dedup, a cache and shards.

    Parameters
    ----------
    jobs:
        Worker processes for uncached specs; 1 executes in-process.
        Results are bit-identical at any job count because each run is
        deterministic in its spec.
    cache_dir:
        Optional directory for the on-disk :class:`ResultCache`; None
        keeps memoization in-memory only.
    engine:
        Optional execution-engine override (``"vector"`` / ``"scalar"``)
        applied to every spec this engine executes.  Results stay keyed
        by the *requested* specs, and cache keys ignore the engine field,
        so overriding changes how runs execute, never what callers see.
    shards:
        Shard count for the sharded executor (:mod:`repro.sim.shard`),
        which runs every batch.  None derives it from the inputs: four
        shards per job, capped at the miss count.  Results are
        bit-identical at any shard count — sharding only changes
        scheduling and spill behaviour, never computation — and
        :class:`ResultCache` keys are unchanged.
    shard_mode:
        Execution mode (see :data:`repro.sim.shard.SHARD_MODES`):
        ``"process"`` (default) runs shards in this process with one job
        and on a process pool with more; ``"subprocess"`` simulates a
        multi-machine fleet of claim-based workers with heartbeat and
        requeue.
    stream_dir:
        Directory for the executor's spill-to-disk result stream.
        Reusing the directory resumes an interrupted sweep: completed
        shards are skipped and partial shard files resume after their
        salvaged prefix.  None spills multi-worker runs to a temporary
        directory that is removed when execution finishes, and keeps
        in-process runs off disk.

    Completed runs are always memoized in-memory for the engine's
    lifetime, so overlapping batches (e.g. Table 4 and Fig. 15 sharing
    their Q-VR grid) execute each spec once even without a cache
    directory; ``cache_dir`` additionally persists results across
    engines and processes.  The bounded-memory entry points
    (:meth:`stream_specs` / :meth:`stream_sweep`) skip that memo —
    results flow straight from the executor to the caller.

    :attr:`last_shard_stats` holds the executor statistics of the last
    batch run with an explicit shard count or through a result stream;
    serial batches with neither leave it None.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
        engine: str | None = None,
        shards: int | None = None,
        shard_mode: str = "process",
        stream_dir: str | os.PathLike | None = None,
    ) -> None:
        from repro.sim.shard import SHARD_MODES

        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if engine is not None and engine not in ENGINE_NAMES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; known: {ENGINE_NAMES}"
            )
        if shards is not None and shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if shard_mode not in SHARD_MODES:
            raise ConfigurationError(
                f"unknown shard mode {shard_mode!r}; known: {SHARD_MODES}"
            )
        self.jobs = jobs
        self.engine = engine
        self.shards = shards
        self.shard_mode = shard_mode
        self.stream_dir = stream_dir
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.stats = BatchStats()
        self.last_shard_stats = None
        self._memo: dict[RunSpec, SimulationResult] = {}

    # -- execution -------------------------------------------------------------

    def run_specs(
        self, specs: Iterable[RunSpec]
    ) -> dict[RunSpec, SimulationResult]:
        """Execute a batch; returns results keyed by spec, input-ordered.

        Duplicate specs are executed once; cached specs are loaded from
        disk; the remainder runs on the sharded executor (in-process with
        one job) and lands in the cache for the next batch.
        """
        requested = list(specs)
        unique = list(dict.fromkeys(requested))
        tracer = obs_trace.active()
        with tracer.span(
            "batch.run_specs", requested=len(requested), unique=len(unique)
        ):
            results = dict(self._serve(requested, memoize=True))
            return {spec: results[spec] for spec in unique}

    def _serve(
        self, specs: Iterable[RunSpec], memoize: bool
    ) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Yield each unique spec's result: memo and cache hits, then runs.

        ``specs`` is consumed incrementally — duplicates are dropped and
        hits yielded as they arrive — and the misses execute once the
        input is drained.  Executed results land in the disk cache, and
        with ``memoize`` every result also lands in the engine memo.
        """
        seen: set[RunSpec] = set()
        misses: list[RunSpec] = []
        for spec in specs:
            self.stats.requested += 1
            if spec in seen:
                continue
            seen.add(spec)
            self.stats.unique += 1
            cached = self._memo.get(spec)
            if cached is None and self.cache is not None:
                cached = self.cache.get(spec)
            if cached is not None:
                self.stats.cache_hits += 1
                if memoize:
                    self._memo[spec] = cached
                yield spec, cached
            else:
                misses.append(spec)
        for spec, result in self._execute(misses):
            if memoize:
                self._memo[spec] = result
            if self.cache is not None:
                self.cache.put(spec, result)
            self.stats.executed += 1
            yield spec, result

    def _execute(
        self, specs: list[RunSpec]
    ) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Yield (spec, result) as runs complete, through the sharded executor.

        Results stream back in completion order so each lands in the
        cache immediately — an interrupted or partially failed sweep
        keeps every run that finished.  Callers key by spec, so the
        non-deterministic completion order never reaches outputs.  The
        executor applies the engine override itself and yields the
        requested specs.  A temporary stream directory is removed once
        the batch finishes, while a configured ``stream_dir`` keeps its
        spill files for resumption and post-hoc reads.
        """
        from repro.sim.shard import ShardedExecutor

        if not specs:
            return
        executor = ShardedExecutor(
            shards=self.shards if self.shards is not None else 4 * self.jobs,
            workers=self.jobs,
            mode=self.shard_mode,
            stream_dir=self.stream_dir,
            engine=self.engine,
        )
        try:
            yield from executor.execute(specs)
        finally:
            if self.shards is not None or executor.stream is not None:
                self.last_shard_stats = executor.stats
            executor.cleanup()

    def run_sweep(self, sweep: Sweep) -> dict[RunSpec, SimulationResult]:
        """Expand and execute a declarative sweep."""
        return self.run_specs(sweep.specs())

    # -- bounded-memory streaming ----------------------------------------------

    def stream_specs(
        self, specs: Iterable[RunSpec]
    ) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Execute a batch lazily, yielding ``(spec, result)`` pairs.

        The bounded-result counterpart of :meth:`run_specs`: results are
        never accumulated into a dict or the in-memory memo, so the
        results held at once do not grow with the sweep beyond whatever
        the consumer retains (feed the pairs to a
        :class:`~repro.sim.metrics.StreamSummary` for O(1) statistics).
        Duplicate specs are still yielded once, disk-cache hits are
        served without execution, and executed results land in the disk
        cache — only the engine-lifetime memo is skipped.

        The requests are not bounded: ``specs`` may be any iterable,
        including a lazy generator, but it is drained before anything
        executes.  Duplicates are dropped and cache hits yielded as they
        arrive, while every unique spec enters a ``seen`` set and every
        miss a list, so a 10k-spec sweep holds all 10k specs (not their
        results) at once.  ROADMAP.md's "Bounded memory that actually
        holds" item tracks streaming them in bounded windows.

        Pairs are yielded as execution completes, so the order mixes
        cache hits (input order, first) with executed shards (completion
        order); consumers key by spec.
        """
        yield from self._serve(specs, memoize=False)

    def stream_sweep(
        self, sweep: Sweep
    ) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Expand and execute a sweep lazily (see :meth:`stream_specs`)."""
        return self.stream_specs(sweep.specs())

    # -- conveniences ----------------------------------------------------------

    def comparison(
        self,
        app: str,
        systems: tuple[str, ...] = SYSTEM_NAMES,
        platform: PlatformConfig | None = None,
        n_frames: int = DEFAULT_FRAMES,
        seed: int = 0,
    ) -> dict[str, SimulationResult]:
        """Run several system designs on the same app and platform."""
        sweep = Sweep(
            systems=tuple(systems),
            apps=(app,),
            platforms=(platform if platform is not None else PlatformConfig(),),
            seeds=(seed,),
            n_frames=n_frames,
        )
        batch = self.run_sweep(sweep)
        return {spec.system: result for spec, result in batch.items()}


_DEFAULT_ENGINE: BatchEngine | None = None


def default_engine() -> BatchEngine:
    """The shared in-process serial engine (no cache)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = BatchEngine()
    return _DEFAULT_ENGINE


def run_batch(
    specs: Iterable[RunSpec],
    jobs: int = 1,
    cache_dir: str | os.PathLike | None = None,
) -> dict[RunSpec, SimulationResult]:
    """One-shot batch execution (constructs a throwaway engine)."""
    return BatchEngine(jobs=jobs, cache_dir=cache_dir).run_specs(specs)


def run_comparison(
    app: str | VRApp,
    systems: tuple[str, ...] = SYSTEM_NAMES,
    platform: PlatformConfig | None = None,
    n_frames: int = DEFAULT_FRAMES,
    seed: int = 0,
    engine: BatchEngine | None = None,
) -> dict[str, SimulationResult]:
    """Run several system designs on the same app and platform.

    Accepts an app name (routed through the batch engine, so results are
    cacheable) or a custom :class:`VRApp` object (executed directly,
    since ad-hoc apps have no stable registry name to key a cache on).
    """
    if isinstance(app, VRApp):
        platform = platform if platform is not None else PlatformConfig()
        warmup = effective_warmup(n_frames)
        return {
            name: make_system(name, app, platform, seed=seed).run(
                n_frames=n_frames, warmup_frames=warmup
            )
            for name in systems
        }
    chosen = engine if engine is not None else default_engine()
    return chosen.comparison(
        app, systems=tuple(systems), platform=platform, n_frames=n_frames, seed=seed
    )


def speedup_over(
    results: dict[str, SimulationResult], system: str, baseline: str = "local"
) -> float:
    """End-to-end latency speedup of ``system`` over ``baseline``."""
    if system not in results or baseline not in results:
        raise ConfigurationError(
            f"need both {system!r} and {baseline!r} in results; have {sorted(results)}"
        )
    return results[baseline].mean_latency_ms / results[system].mean_latency_ms
