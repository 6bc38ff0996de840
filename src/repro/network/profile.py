"""Time-varying network profiles: the dynamic-environment abstraction.

The paper targets collaborative VR for "users around the world, regardless
of their hardware and network conditions" (Sec. 1).  Real links are not a
frozen :class:`~repro.network.conditions.NetworkConditions` preset — they
drop, recover, and wander.  This module generalises the preset into a
**profile**: a deterministic schedule of link conditions over simulation
time that :class:`~repro.network.channel.NetworkChannel` samples as the
frame loop advances, so the LIWC/SW controllers see (and react to)
mid-run bandwidth changes.

Profiles
--------
* :class:`ConstantProfile` — today's static presets, unchanged semantics;
* :class:`PiecewiseProfile` — a step schedule of conditions (e.g. the
  canonical bandwidth-drop window, :meth:`PiecewiseProfile.bandwidth_drop`);
* :class:`TraceProfile` — trace-driven from arrays or a CSV file
  (``time_ms,throughput_mbps[,propagation_ms]``);
* :class:`MarkovProfile` — a seeded two-state good/degraded Markov chain.

Every profile is a frozen, hashable dataclass, so it travels inside
:class:`~repro.sim.systems.PlatformConfig` through ``RunSpec`` hashing and
the on-disk result cache exactly like the static presets do.  Sampling is
deterministic: the same ``(profile, seed)`` pair replays the same link
history, which keeps batch runs bit-identical across processes and cache
round-trips.
"""

from __future__ import annotations

import csv
import os
from abc import ABC, abstractmethod
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError, NetworkError
from repro.network.conditions import LTE_4G, NetworkConditions, WIFI, by_name

__all__ = [
    "NetworkProfile",
    "ConstantProfile",
    "PiecewiseProfile",
    "TraceProfile",
    "MarkovProfile",
    "AllocatedProfile",
    "OffsetProfile",
    "SwitchedProfile",
    "ShareSchedule",
    "allocated_conditions",
    "as_profile",
    "profile_by_name",
    "PROFILES",
]

#: Per-process LRU of :meth:`TraceProfile._segments` schedules.
_SEGMENT_CACHE: OrderedDict = OrderedDict()
_SEGMENT_CACHE_MAX = 64

#: Seed salt decorrelating the Markov state stream from the channel jitter
#: stream (both derive from the same channel seed).
_MARKOV_SEED_SALT = 7919


def _shared_jitter(jitter_fraction: float, n_clients: int) -> float:
    """Jitter growth from ``n_clients`` interleaving their transfers."""
    return min(jitter_fraction * (1 + 0.1 * (n_clients - 1)), 0.5)


def allocated_conditions(
    conditions: NetworkConditions, share: float, n_clients: int
) -> NetworkConditions:
    """Conditions one client observes under a *scheduled* link allocation.

    Throughput and any modelled uplink scale by the client's ``share``
    of the link (a policy decision of the session planner), while jitter
    grows with the number of interleaved clients.
    """
    if share <= 0:
        raise NetworkError(f"allocation share must be > 0, got {share}")
    return replace(
        conditions,
        throughput_mbps=conditions.throughput_mbps * share,
        jitter_fraction=_shared_jitter(conditions.jitter_fraction, n_clients),
        uplink_mbps=(
            conditions.uplink_mbps * share
            if conditions.uplink_mbps is not None
            else None
        ),
    )


class _ConstantSampler:
    """Sampler of a time-invariant profile."""

    def __init__(self, conditions: NetworkConditions) -> None:
        self._conditions = conditions

    def conditions_at(self, t_ms: float) -> NetworkConditions:
        return self._conditions


class _ScheduleSampler:
    """Sampler over a pre-materialised step schedule (piecewise, trace)."""

    def __init__(self, segments: tuple[tuple[float, NetworkConditions], ...]) -> None:
        self._starts = [start for start, _ in segments]
        self._conditions = [conditions for _, conditions in segments]

    def conditions_at(self, t_ms: float) -> NetworkConditions:
        index = bisect_right(self._starts, t_ms) - 1
        return self._conditions[max(index, 0)]


class NetworkProfile(ABC):
    """A deterministic schedule of link conditions over simulation time."""

    @abstractmethod
    def sampler(self, seed: int = 0):
        """A sampler exposing ``conditions_at(t_ms) -> NetworkConditions``.

        Stateless profiles ignore ``seed``; stochastic ones (Markov)
        derive their whole state sequence from it, so equal seeds replay
        equal link histories.
        """

    @property
    def name(self) -> str:
        """Display label (used in tables and the CLI)."""
        return type(self).__name__

@dataclass(frozen=True)
class ConstantProfile(NetworkProfile):
    """A time-invariant link — the classic Table 2 preset as a profile."""

    conditions: NetworkConditions

    def sampler(self, seed: int = 0) -> _ConstantSampler:
        return _ConstantSampler(self.conditions)

    @property
    def name(self) -> str:
        return self.conditions.name

@dataclass(frozen=True)
class PiecewiseProfile(NetworkProfile):
    """A step schedule: ``segments`` of ``(start_ms, conditions)`` pairs.

    Segment starts must be strictly increasing and the first segment must
    begin at 0 ms (every instant of a run has defined conditions).
    """

    segments: tuple[tuple[float, NetworkConditions], ...]
    label: str = "piecewise"

    def __post_init__(self) -> None:
        if not self.segments:
            raise NetworkError("piecewise profile needs at least one segment")
        normalised = tuple(
            (float(start), conditions) for start, conditions in self.segments
        )
        object.__setattr__(self, "segments", normalised)
        starts = [start for start, _ in normalised]
        if starts[0] != 0.0:
            raise NetworkError(
                f"first segment must start at 0 ms, got {starts[0]}"
            )
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise NetworkError(f"segment starts must strictly increase: {starts}")
        for _, conditions in normalised:
            if not isinstance(conditions, NetworkConditions):
                raise NetworkError(
                    f"segment conditions must be NetworkConditions, got "
                    f"{type(conditions).__name__}"
                )

    @classmethod
    def bandwidth_drop(
        cls,
        base: NetworkConditions,
        start_ms: float,
        duration_ms: float,
        factor: float,
        label: str | None = None,
    ) -> "PiecewiseProfile":
        """Nominal link with one bandwidth-drop window.

        Throughput multiplies by ``factor`` for ``duration_ms`` starting
        at ``start_ms``, then recovers — the canonical dynamic-environment
        experiment (eccentricity should grow and the remote share shrink
        inside the window).
        """
        if start_ms <= 0 or duration_ms <= 0:
            raise NetworkError("drop window must have positive start and duration")
        if not 0 < factor < 1:
            raise NetworkError(f"drop factor must be in (0, 1), got {factor}")
        degraded = replace(base, throughput_mbps=base.throughput_mbps * factor)
        return cls(
            segments=(
                (0.0, base),
                (float(start_ms), degraded),
                (float(start_ms + duration_ms), base),
            ),
            label=label if label is not None else f"{base.name} drop x{factor:g}",
        )

    def sampler(self, seed: int = 0) -> _ScheduleSampler:
        return _ScheduleSampler(self.segments)

    @property
    def name(self) -> str:
        return self.label

    @property
    def boundaries_ms(self) -> tuple[float, ...]:
        """Instants at which conditions change (segment starts after 0)."""
        return tuple(start for start, _ in self.segments[1:])


@dataclass(frozen=True)
class TraceProfile(NetworkProfile):
    """A trace-driven link: sampled throughput (and optionally latency).

    ``times_ms`` must start at 0 and strictly increase; each sample holds
    until the next one (step interpolation, the standard replay semantics
    of throughput traces).  ``propagation_ms`` optionally overrides the
    base path latency per sample.
    """

    base: NetworkConditions
    times_ms: tuple[float, ...]
    throughput_mbps: tuple[float, ...]
    propagation_ms: tuple[float, ...] | None = None
    label: str = "trace"

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times_ms)
        throughputs = tuple(float(x) for x in self.throughput_mbps)
        object.__setattr__(self, "times_ms", times)
        object.__setattr__(self, "throughput_mbps", throughputs)
        if self.propagation_ms is not None:
            object.__setattr__(
                self, "propagation_ms", tuple(float(p) for p in self.propagation_ms)
            )
        if not times:
            raise NetworkError("trace profile needs at least one sample")
        if len(times) != len(throughputs):
            raise NetworkError(
                f"trace length mismatch: {len(times)} times vs "
                f"{len(throughputs)} throughput samples"
            )
        if self.propagation_ms is not None and len(self.propagation_ms) != len(times):
            raise NetworkError(
                f"trace length mismatch: {len(times)} times vs "
                f"{len(self.propagation_ms)} propagation samples"
            )
        if times[0] != 0.0:
            raise NetworkError(f"trace must start at 0 ms, got {times[0]}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise NetworkError("trace times must strictly increase")
        if any(x <= 0 for x in throughputs):
            raise NetworkError("trace throughput samples must be > 0")

    @classmethod
    def from_csv(
        cls,
        path: str,
        base: NetworkConditions = WIFI,
        label: str | None = None,
    ) -> "TraceProfile":
        """Load ``time_ms,throughput_mbps[,propagation_ms]`` rows.

        A non-numeric first row is treated as a header and skipped.
        """
        times: list[float] = []
        throughputs: list[float] = []
        propagations: list[float] = []
        with open(path, newline="") as handle:
            for row in csv.reader(handle):
                cells = [cell.strip() for cell in row if cell.strip()]
                if not cells:
                    continue
                try:
                    values = [float(cell) for cell in cells]
                except ValueError:
                    if not times:  # header row
                        continue
                    raise NetworkError(f"non-numeric trace row in {path!r}: {row}")
                if len(values) < 2:
                    raise NetworkError(
                        f"trace rows need time_ms,throughput_mbps; got {row} in {path!r}"
                    )
                times.append(values[0])
                throughputs.append(values[1])
                if len(values) >= 3:
                    propagations.append(values[2])
        if propagations and len(propagations) != len(times):
            raise NetworkError(
                f"trace {path!r} mixes rows with and without propagation_ms"
            )
        return cls(
            base=base,
            times_ms=tuple(times),
            throughput_mbps=tuple(throughputs),
            propagation_ms=tuple(propagations) if propagations else None,
            label=label if label is not None else path,
        )

    def _segments(self) -> tuple[tuple[float, NetworkConditions], ...]:
        """The step schedule, memoised per process on the frozen profile.

        The memo lives in a module-level table, not on the instance, so
        it never reaches the pickled state or the spec key.  Its entries
        are pure functions of the key: a fork-inherited or rebuilt entry
        is equal to a fresh build.
        """
        # Imported here: repro.obs imports the simulation layer, which
        # imports this module.
        from repro.obs import metrics as obs_metrics

        segments = _SEGMENT_CACHE.get(self)
        if segments is None:
            obs_metrics.counter("profile.segments.miss").inc()
            segments = self._build_segments()
            _SEGMENT_CACHE[self] = segments
            if len(_SEGMENT_CACHE) > _SEGMENT_CACHE_MAX:
                _SEGMENT_CACHE.popitem(last=False)
                obs_metrics.counter("profile.segments.evict").inc()
        else:
            obs_metrics.counter("profile.segments.hit").inc()
            _SEGMENT_CACHE.move_to_end(self)
        return segments

    def _build_segments(self) -> tuple[tuple[float, NetworkConditions], ...]:
        segments = []
        for index, start in enumerate(self.times_ms):
            conditions = replace(
                self.base, throughput_mbps=self.throughput_mbps[index]
            )
            if self.propagation_ms is not None:
                conditions = replace(
                    conditions, propagation_ms=self.propagation_ms[index]
                )
            segments.append((start, conditions))
        return tuple(segments)

    def sampler(self, seed: int = 0) -> _ScheduleSampler:
        return _ScheduleSampler(self._segments())

    @property
    def name(self) -> str:
        return self.label


class _MarkovSampler:
    """Lazily materialised good/degraded state sequence for one seed."""

    def __init__(self, profile: "MarkovProfile", seed: int) -> None:
        self._profile = profile
        self._rng = np.random.default_rng([int(seed), _MARKOV_SEED_SALT])
        self._good_states = [True]

    def conditions_at(self, t_ms: float) -> NetworkConditions:
        if t_ms < 0:
            raise NetworkError(f"profile time must be >= 0, got {t_ms}")
        interval = int(t_ms // self._profile.dwell_ms)
        while len(self._good_states) <= interval:
            good = self._good_states[-1]
            draw = float(self._rng.random())
            if good:
                self._good_states.append(draw >= self._profile.p_degrade)
            else:
                self._good_states.append(draw < self._profile.p_recover)
        if self._good_states[interval]:
            return self._profile.good
        return self._profile.degraded


@dataclass(frozen=True)
class MarkovProfile(NetworkProfile):
    """A seeded two-state (good/degraded) Markov link model.

    The chain starts in the good state and re-evaluates every
    ``dwell_ms``: from good it degrades with probability ``p_degrade``,
    from degraded it recovers with probability ``p_recover``.  The state
    sequence is a pure function of the sampler seed, so runs replay
    exactly.
    """

    good: NetworkConditions
    degraded: NetworkConditions
    p_degrade: float = 0.05
    p_recover: float = 0.25
    dwell_ms: float = 250.0
    label: str = "markov"

    def __post_init__(self) -> None:
        if not 0 <= self.p_degrade <= 1 or not 0 <= self.p_recover <= 1:
            raise NetworkError("transition probabilities must be in [0, 1]")
        if self.dwell_ms <= 0:
            raise NetworkError(f"dwell_ms must be > 0, got {self.dwell_ms}")

    def sampler(self, seed: int = 0) -> _MarkovSampler:
        return _MarkovSampler(self, seed)

    @property
    def name(self) -> str:
        return self.label

@dataclass(frozen=True)
class ShareSchedule:
    """A step schedule of resource shares: ``(start_ms, share)`` segments.

    The unit the admission planner (:mod:`repro.sim.server`) emits per
    client per resource and the frame loop samples: segments must start
    at 0 ms, strictly increase, and carry positive shares.  Defined in
    the network layer so :class:`AllocatedProfile` and the server share
    one validation/lookup implementation (the server imports profiles,
    never the reverse).
    """

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("share schedule needs at least one segment")
        normalised = tuple(
            (float(start), float(share)) for start, share in self.segments
        )
        object.__setattr__(self, "segments", normalised)
        starts = [start for start, _ in normalised]
        if starts[0] != 0.0:
            raise ConfigurationError(
                f"share schedule must start at 0 ms, got {starts[0]}"
            )
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigurationError(
                f"share-schedule starts must strictly increase: {starts}"
            )
        if any(share <= 0 for _, share in normalised):
            raise ConfigurationError("share-schedule shares must be > 0")
        # share_at sits on the per-frame hot path; precompute the bisect
        # keys once (frozen dataclass, hence the setattr back door).
        object.__setattr__(self, "_starts", starts)

    def share_at(self, t_ms: float) -> float:
        """The share in force at instant ``t_ms`` (first segment before 0)."""
        index = max(bisect_right(self._starts, t_ms) - 1, 0)
        return self.segments[index][1]

    def with_stall(self, stall_ms: float, stall_share: float) -> "ShareSchedule":
        """This schedule with its opening ``stall_ms`` pinned to ``stall_share``.

        The splice the render-fleet planner (:mod:`repro.sim.fleet`)
        applies to a migrated client's epoch schedule: while state
        transfers to the new server the client renders at a starvation
        share, then the planned allocation resumes mid-schedule exactly
        where it would have been.  A stall covering the whole schedule
        leaves one flat starvation segment; ``stall_ms <= 0`` is the
        identity.
        """
        if stall_ms <= 0:
            return self
        if stall_share <= 0:
            raise ConfigurationError(
                f"stall share must be > 0, got {stall_share}"
            )
        segments: list[tuple[float, float]] = [(0.0, float(stall_share))]
        resume = self.share_at(stall_ms)
        if resume != stall_share:
            segments.append((float(stall_ms), resume))
        for start, share in self.segments:
            if start > stall_ms and share != segments[-1][1]:
                segments.append((start, share))
        return ShareSchedule(tuple(segments))


class _AllocatedSampler:
    """Sampler applying a share schedule on top of a base profile sampler."""

    def __init__(
        self,
        base_sampler,
        schedule: ShareSchedule,
        n_clients: int,
    ) -> None:
        self._base = base_sampler
        self._schedule = schedule
        self._n_clients = n_clients

    def conditions_at(self, t_ms: float) -> NetworkConditions:
        return allocated_conditions(
            self._base.conditions_at(t_ms),
            self._schedule.share_at(t_ms),
            self._n_clients,
        )


@dataclass(frozen=True)
class AllocatedProfile(NetworkProfile):
    """A base profile observed through a scheduled per-client link share.

    The rendering server's admission/scheduling layer
    (:mod:`repro.sim.server`) emits one share schedule per client of a
    shared session: ``segments`` of ``(start_ms, share)`` pairs, each
    share the fraction of the session link this client holds until the
    next boundary.  Sampling composes the base profile's conditions at
    ``t`` with the share in force at ``t``, so a policy that re-allocates
    mid-run (e.g. deadline scheduling reacting to a trace-driven drop)
    reaches every transfer and the ACK estimate the controllers watch.
    """

    base: NetworkProfile
    segments: tuple[tuple[float, float], ...]
    n_clients: int = 1
    label: str = "allocated"

    def __post_init__(self) -> None:
        # ShareSchedule validates shape, ordering and positivity, and
        # normalises the floats; keep its canonical form.
        object.__setattr__(
            self, "segments", ShareSchedule(self.segments).segments
        )
        if self.n_clients < 1:
            raise NetworkError(f"n_clients must be >= 1, got {self.n_clients}")

    def sampler(self, seed: int = 0) -> _AllocatedSampler:
        return _AllocatedSampler(
            self.base.sampler(seed),
            ShareSchedule(self.segments),
            self.n_clients,
        )

    @property
    def name(self) -> str:
        return f"{self.base.name}:{self.label}"


class _OffsetSampler:
    """Sampler translating a client-local clock onto session time."""

    def __init__(self, base_sampler, offset_ms: float) -> None:
        self._base = base_sampler
        self._offset_ms = offset_ms

    def conditions_at(self, t_ms: float) -> NetworkConditions:
        return self._base.conditions_at(t_ms + self._offset_ms)


@dataclass(frozen=True)
class OffsetProfile(NetworkProfile):
    """A base profile observed from a later session instant.

    A late-starting client of an event-driven session (see
    :mod:`repro.sim.session`) runs its own frame loop from local t = 0,
    but the session link has already been evolving for ``offset_ms``:
    sampling maps local ``t`` to session ``t + offset_ms``, so a client
    promoted out of the admission queue mid-drop observes the drop, not
    a fresh copy of the link's opening conditions.
    """

    base: NetworkProfile
    offset_ms: float

    def __post_init__(self) -> None:
        if self.offset_ms < 0:
            raise NetworkError(f"offset_ms must be >= 0, got {self.offset_ms}")
        object.__setattr__(self, "offset_ms", float(self.offset_ms))

    def sampler(self, seed: int = 0) -> _OffsetSampler:
        return _OffsetSampler(self.base.sampler(seed), self.offset_ms)

    @property
    def name(self) -> str:
        return f"{self.base.name}@+{self.offset_ms:g}ms"


class _SwitchedSampler:
    """Sampler dispatching to the profile in force at each instant."""

    def __init__(
        self,
        segments: tuple[tuple[float, NetworkProfile], ...],
        seed: int,
    ) -> None:
        self._starts = [start for start, _ in segments]
        self._samplers = [profile.sampler(seed) for _, profile in segments]

    def conditions_at(self, t_ms: float) -> NetworkConditions:
        index = max(bisect_right(self._starts, t_ms) - 1, 0)
        return self._samplers[index].conditions_at(t_ms)


@dataclass(frozen=True)
class SwitchedProfile(NetworkProfile):
    """Profiles spliced at session instants: ``(start_ms, profile)`` segments.

    The dynamic-session event ``ProfileSwitch`` (a client roaming from
    Wi-Fi onto 4G mid-session, say) composes the client's link history
    into one profile: each segment's profile is in force from its start
    until the next boundary, sampled on the *session* clock so a splice
    into the middle of a trace lands mid-trace, not at the trace's start.
    Segment starts must begin at 0 and strictly increase.
    """

    segments: tuple[tuple[float, NetworkProfile], ...]
    label: str = "switched"

    def __post_init__(self) -> None:
        if not self.segments:
            raise NetworkError("switched profile needs at least one segment")
        normalised = tuple(
            (float(start), profile) for start, profile in self.segments
        )
        object.__setattr__(self, "segments", normalised)
        starts = [start for start, _ in normalised]
        if starts[0] != 0.0:
            raise NetworkError(
                f"first switched segment must start at 0 ms, got {starts[0]}"
            )
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise NetworkError(
                f"switched-segment starts must strictly increase: {starts}"
            )
        for _, profile in normalised:
            if not isinstance(profile, NetworkProfile):
                raise NetworkError(
                    f"switched segments must hold NetworkProfile values, got "
                    f"{type(profile).__name__}"
                )

    def sampler(self, seed: int = 0) -> _SwitchedSampler:
        return _SwitchedSampler(self.segments, seed)

    @property
    def name(self) -> str:
        return self.label


#: Named dynamic profiles the CLI accepts (``repro batch --profile``,
#: ``repro scenarios``).  Static preset names and slugs ("wifi", "4g",
#: "lte", "5g", ...) are NOT duplicated here — :func:`profile_by_name`
#: falls through to :func:`~repro.network.conditions.by_name`, the
#: single registry of those.
PROFILES: dict[str, NetworkProfile] = {
    "wifi-drop": PiecewiseProfile.bandwidth_drop(
        WIFI, start_ms=900.0, duration_ms=900.0, factor=0.15, label="wifi-drop"
    ),
    "4g-drop": PiecewiseProfile.bandwidth_drop(
        LTE_4G, start_ms=900.0, duration_ms=900.0, factor=0.25, label="4g-drop"
    ),
    "wifi-markov": MarkovProfile(
        good=WIFI,
        degraded=replace(WIFI, throughput_mbps=50.0, jitter_fraction=0.2),
        label="wifi-markov",
    ),
}


def profile_by_name(name: str, base_dir: str | None = None) -> NetworkProfile:
    """Resolve a profile by registry name, preset label/slug, or CSV path.

    A relative CSV path reads against ``base_dir`` when one is given (the
    directory of the file that names it) and keeps the name as written
    as its label, so spec keys do not depend on where the file lives;
    otherwise it reads against the working directory.  An unreadable
    CSV raises :class:`~repro.errors.ConfigurationError` naming the path.
    """
    label = name.strip()
    if label.lower().endswith(".csv"):
        if base_dir is None or os.path.isabs(label):
            path, trace_label = label, None
        else:
            path, trace_label = os.path.join(base_dir, label), label
        try:
            return TraceProfile.from_csv(path, label=trace_label)
        except OSError as error:
            raise ConfigurationError(
                f"cannot read trace CSV {path!r}: {error.strerror or error}"
            ) from None
    key = label.lower()
    if key in PROFILES:
        return PROFILES[key]
    try:
        return ConstantProfile(by_name(key))
    except NetworkError as preset_error:
        raise NetworkError(
            f"unknown network profile {name!r}; dynamic profiles: "
            f"{', '.join(sorted(PROFILES))}; a path to a trace CSV; or a "
            f"static preset ({preset_error})"
        ) from None


def as_profile(value: "NetworkProfile | NetworkConditions | str") -> NetworkProfile:
    """Coerce conditions, profile objects, or names into a profile."""
    if isinstance(value, NetworkProfile):
        return value
    if isinstance(value, NetworkConditions):
        return ConstantProfile(value)
    if isinstance(value, str):
        return profile_by_name(value)
    raise NetworkError(
        f"cannot interpret {type(value).__name__} as a network profile"
    )
