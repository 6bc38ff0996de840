"""Collaborative sessions: shared infrastructure, join, leave, re-admit, promote.

The paper's planet-scale framing ("users around the world, regardless of
their hardware and network conditions") implies several Q-VR clients
sharing one rendering server and one access link, in sessions that
*churn*: clients join mid-session, leave early, and roam between links.
Surveys of synchronous VR/AR collaboration treat exactly this dynamism
as the defining workload of multi-party systems.

This module is the one multi-client surface.  A :class:`Session`
composes :class:`ClientSpec` values — each its own ``(app, platform,
profile)`` tuple, so one participant can sit on a flagship SoC over
Wi-Fi and another on a throttled GPU over a 4G link that drops mid-run —
with a typed event timeline —

* :class:`Join` — a new client arrives mid-session;
* :class:`Leave` — a client departs (freeing its server capacity);
* :class:`ProfileSwitch` — a client's link changes (Wi-Fi to 4G roam);
* the :class:`CapacityEvent` family (:mod:`repro.sim.fleet`) —
  ``ServerUp`` / ``ServerDown`` / ``ServerFail`` grow and shrink a
  *fleet* of named rendering servers mid-session;

and :meth:`Session.timeline` re-plans the session at every event on
one epoch walker, :func:`repro.sim.fleet.plan_fleet_timeline` — a
session on a single :class:`~repro.sim.server.RenderServer` is a
one-server fleet.  At every boundary the walker re-places the present
roster (incumbents keep their seats — re-planning never evicts),
**promotes queued clients into freed capacity** so they genuinely start
late instead of sitting out, and re-allocates every policy's share
schedules over the epoch.  The result is one frozen
:class:`~repro.sim.runner.RunSpec` per serviced client — carrying its
session start offset and the concatenated per-epoch ``(start_ms,
share)`` schedules in client-local time — which the ordinary
:class:`~repro.sim.runner.BatchEngine` executes deterministically, in
parallel, and cacheably like any other spec.  An event-free session
plans one epoch, whose ``decisions`` are the admission verdicts.

Model of the shared infrastructure: each client runs the full Q-VR
control loop independently; the shared infrastructure scales each
client's effective resources —

* the server's rendering throughput divides across concurrently active
  clients (the MCM GPUs are time-shared);
* the shared downlink divides its throughput across clients;

so every client's LIWC observes a *degraded environment* (slower ACK
throughput, longer remote latencies) and re-balances by growing its local
fovea.  The testable prediction — more co-located users, larger average
eccentricity and lower per-user FPS, until the local GPUs saturate — is
the behaviour a planet-scale deployment would exhibit.

Every client's shares travel as explicit ``(start_ms, share)``
schedules on its spec; under fair share with ``n`` equal clients each
schedule is the flat share ``1 / (n * sharing_efficiency)``, capped at
the whole resource.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import trace as obs_trace
from repro.network.conditions import NetworkConditions
from repro.network.profile import NetworkProfile, as_profile
from repro.sim.metrics import (
    ServerWindow,
    SimulationResult,
    WindowStats,
    aggregate_server_stats,
    window_stats,
)
from repro.sim.runner import BatchEngine, RunSpec, default_engine
from repro.sim.server import AdmissionDecision, POLICY_NAMES, RenderServer
from repro.sim.systems import PlatformConfig

if TYPE_CHECKING:  # imported lazily at runtime (fleet imports session)
    from repro.sim.fleet import RenderFleet

__all__ = [
    "ClientSpec",
    "SessionEvent",
    "CapacityEvent",
    "Join",
    "Leave",
    "ProfileSwitch",
    "Session",
    "Epoch",
    "ClientTimeline",
    "SessionTimeline",
    "SessionResult",
    "events_from_motion",
    "simulate_session",
]

#: Planning horizon slack over the nominal 90 Hz session duration, so
#: allocation schedules keep re-evaluating even when degraded clients run
#: well behind the target frame rate.
_HORIZON_SLACK = 3.0


@dataclass(frozen=True)
class ClientSpec:
    """One participant of a shared session: app, hardware, link dynamics.

    Attributes
    ----------
    app:
        The title this client runs.
    platform:
        The client's own platform; ``None`` inherits the session default.
    profile:
        Link conditions/profile override (a
        :class:`~repro.network.profile.NetworkProfile`, static
        conditions, or a registry name); ``None`` keeps the platform's
        network.  A client whose resolved network differs from the
        session default is on a *private* link: it still shares the
        rendering server, but its downlink is not divided across the
        session's clients.
    system:
        Per-client system design override; ``None`` uses the session
        run's system.
    weight:
        Demand in client-equivalents, the admission controller's
        currency (see :class:`~repro.sim.server.RenderServer`); 1.0 is
        one full-demand client.
    """

    app: str
    platform: PlatformConfig | None = None
    profile: NetworkProfile | NetworkConditions | str | None = None
    system: str | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError(f"client weight must be > 0, got {self.weight}")

    def resolved_platform(self, default: PlatformConfig) -> PlatformConfig:
        """The platform this client runs on, with its profile applied."""
        platform = self.platform if self.platform is not None else default
        if self.profile is not None:
            platform = replace(platform, network=as_profile(self.profile))
        return platform


def _client_spec(value) -> ClientSpec:
    """Promote a bare app name to a :class:`ClientSpec`."""
    return value if isinstance(value, ClientSpec) else ClientSpec(app=value)


# ---------------------------------------------------------------------------
# The event vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionEvent:
    """Something that happens to the session at instant ``t_ms``.

    Events must fall strictly inside the session: after its start (a
    client present at t = 0 is simply an initial client) and before its
    nominal end (checked against the frame count when the timeline is
    planned).  ``Leave`` and ``ProfileSwitch`` name clients by *session
    index*: initial clients count 0..n-1 in declaration order, and every
    ``Join`` appends the next index in event order.

    Events sharing one timestamp apply in a **deterministic total
    order**, not declaration order: first the events that free resources
    (``Leave``, ``ServerDown``, ``ServerFail`` — rank 0), then link
    switches (``ProfileSwitch`` — rank 1), then the events that claim
    resources (``Join``, ``ServerUp`` — rank 2); declaration order only
    breaks ties *within* a rank.  Capacity freed at an instant is thus
    always visible to arrivals at the same instant, however the events
    were listed — and a client cannot join and leave at the same
    instant (the leave would order first and name a client that does
    not exist yet).
    """

    #: Same-timestamp application rank (see the class docstring); lower
    #: ranks apply first.  Free resources (0) < switch links (1) < claim
    #: resources (2).
    rank: ClassVar[int] = 1

    t_ms: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.t_ms) or self.t_ms <= 0:
            raise ConfigurationError(
                f"event time must be finite and > 0 ms, got {self.t_ms}"
            )
        object.__setattr__(self, "t_ms", float(self.t_ms))


@dataclass(frozen=True)
class CapacityEvent(SessionEvent):
    """Base of the render-fleet capacity events (:mod:`repro.sim.fleet`).

    Capacity events name a fleet server rather than a client, and —
    unlike client events — may fire at t = 0: a ``ServerFail(0, ...)``
    models a server that was supposed to be there and is not.  Sessions
    carrying capacity events must declare a
    :class:`~repro.sim.fleet.RenderFleet`.
    """

    server: str = ""

    def __post_init__(self) -> None:
        if not np.isfinite(self.t_ms) or self.t_ms < 0:
            raise ConfigurationError(
                f"capacity-event time must be finite and >= 0 ms, got {self.t_ms}"
            )
        object.__setattr__(self, "t_ms", float(self.t_ms))
        if not self.server:
            raise ConfigurationError(
                f"{type(self).__name__} needs a fleet server name"
            )


@dataclass(frozen=True)
class Join(SessionEvent):
    """A new client arrives mid-session (admitted, degraded, or queued)."""

    rank: ClassVar[int] = 2

    spec: ClientSpec | str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.spec is None:
            raise ConfigurationError("Join needs a ClientSpec (or app name)")
        object.__setattr__(self, "spec", _client_spec(self.spec))


@dataclass(frozen=True)
class Leave(SessionEvent):
    """A client departs; its capacity frees for queued clients."""

    rank: ClassVar[int] = 0

    client: int = -1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.client < 0:
            raise ConfigurationError(
                f"Leave needs a session client index >= 0, got {self.client}"
            )


@dataclass(frozen=True)
class ProfileSwitch(SessionEvent):
    """A client's link profile changes mid-session (onto a private link)."""

    client: int = -1
    profile: "NetworkProfile | NetworkConditions | str | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.client < 0:
            raise ConfigurationError(
                f"ProfileSwitch needs a session client index >= 0, got {self.client}"
            )
        if self.profile is None:
            raise ConfigurationError("ProfileSwitch needs a target profile")
        object.__setattr__(self, "profile", as_profile(self.profile))


# ---------------------------------------------------------------------------
# The session builder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Session:
    """A declarative collaborative session: initial roster plus events.

    Attributes
    ----------
    clients:
        Clients present at t = 0 (bare app-name strings are promoted to
        :class:`ClientSpec`).
    events:
        The churn timeline; events are applied in time order, then by
        rank (see :class:`SessionEvent`), with declaration order breaking
        ties within a rank.  Without events the session plans a single
        epoch: ``timeline(...).epochs[0].decisions`` are the admission
        verdicts and ``timeline(...).specs`` the serviced clients' runs.
    platform:
        The default single-user platform being shared.
    sharing_efficiency:
        Fraction of ideal 1/N scaling the infrastructure achieves.
    policy:
        Server scheduling policy (:data:`~repro.sim.server.POLICY_NAMES`),
        re-applied at every epoch.
    server:
        The rendering server.  The session plans on a one-server fleet
        of it, named ``"server"``, with the server's overflow mode.
        ``None`` means a default :class:`~repro.sim.server.RenderServer`
        (capacity of eight client-equivalents, ``"degrade"`` overflow).
    fleet:
        A :class:`~repro.sim.fleet.RenderFleet` replacing the single
        ``server`` with a roster of named servers whose capacity changes
        through :class:`CapacityEvent`s; mutually exclusive with
        ``server``.
    """

    clients: tuple = ()
    events: tuple[SessionEvent, ...] = ()
    platform: PlatformConfig | None = None
    sharing_efficiency: float = 0.9
    policy: str = "fair-share"
    server: RenderServer | None = None
    fleet: "RenderFleet | None" = None

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown scheduling policy {self.policy!r}; known: {POLICY_NAMES}"
            )
        if not 0 < self.sharing_efficiency <= 1:
            raise ConfigurationError("sharing_efficiency must be in (0, 1]")
        if self.platform is None:
            object.__setattr__(self, "platform", PlatformConfig())
        object.__setattr__(
            self, "clients", tuple(_client_spec(c) for c in self.clients)
        )
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, SessionEvent):
                raise ConfigurationError(
                    f"events must be SessionEvent values, got "
                    f"{type(event).__name__}"
                )
        if self.fleet is not None and self.server is not None:
            raise ConfigurationError(
                "a session takes either a server or a fleet, not both "
                "(the fleet owns the servers)"
            )
        capacity_events = tuple(
            e for e in self.events if isinstance(e, CapacityEvent)
        )
        if capacity_events and self.fleet is None:
            raise ConfigurationError(
                "capacity events (ServerUp/ServerDown/ServerFail) require "
                "a RenderFleet on the session"
            )
        if self.fleet is not None:
            self.fleet.validate_events(capacity_events)
        self._validate_event_references()
        if not self.clients and not any(
            isinstance(e, Join) for e in self.events
        ):
            raise ConfigurationError(
                "session needs at least one client (initial or joining)"
            )

    def _validate_event_references(self) -> None:
        """Statically replay membership so bad indices fail at build time."""
        known = len(self.clients)
        left: set[int] = set()
        switched: set[tuple[float, int]] = set()
        for event in self.ordered_events():
            if isinstance(event, CapacityEvent):
                continue  # server references validated by the fleet
            if isinstance(event, Join):
                known += 1
                continue
            index = event.client  # type: ignore[attr-defined]
            if index >= known:
                raise ConfigurationError(
                    f"{type(event).__name__} at {event.t_ms:g} ms names client "
                    f"{index}, but only {known} clients exist by then"
                )
            if index in left:
                raise ConfigurationError(
                    f"{type(event).__name__} at {event.t_ms:g} ms names client "
                    f"{index}, which already left the session"
                )
            if isinstance(event, Leave):
                left.add(index)
            elif isinstance(event, ProfileSwitch):
                if (event.t_ms, index) in switched:
                    raise ConfigurationError(
                        f"two ProfileSwitch events name client {index} at "
                        f"{event.t_ms:g} ms; a client switches at most once per instant"
                    )
                switched.add((event.t_ms, index))

    def ordered_events(self) -> tuple[SessionEvent, ...]:
        """Events in application order: by time, then rank, then declaration.

        The enforced total order at one instant is Leave/ServerDown/
        ServerFail (free resources) before ProfileSwitch before
        Join/ServerUp (claim resources) — see
        :attr:`SessionEvent.rank` — with declaration order breaking ties
        only within a rank, so two sessions listing the same events in a
        different order plan identically.
        """
        return tuple(sorted(self.events, key=lambda e: (e.t_ms, e.rank)))

    @property
    def n_clients(self) -> int:
        """Total clients that ever participate (initial + joiners)."""
        return len(self.clients) + sum(
            1 for e in self.events if isinstance(e, Join)
        )

    def with_policy(self, policy: str) -> "Session":
        """This session under another scheduling policy.

        Roster, events, platform, and fleet are shared (all frozen); only
        the policy differs — the hook the population demand generator
        uses to re-plan one sampled city under every candidate policy.
        """
        if policy == self.policy:
            return self
        return replace(self, policy=policy)

    # -- planning ----------------------------------------------------------------

    def timeline(
        self,
        system: str = "qvr",
        n_frames: int = 200,
        seed: int = 0,
        warmup_frames: int | None = None,
    ) -> "SessionTimeline":
        """Re-plan the session at every event and freeze it into run specs.

        Every session plans on the one epoch walker,
        :func:`repro.sim.fleet.plan_fleet_timeline` — a session without a
        :attr:`fleet` on a one-server fleet of its :attr:`server`.  The
        walker visits the epoch boundaries chronologically: at each one the pending events apply, the fleet
        re-places the present roster **in arrival order** (so incumbents
        keep their seats and freed capacity promotes queued clients
        first-fit in arrival order — the oldest queued client that
        *fits* goes first; a lighter late-comer may slip past a heavy
        queued client rather than head-of-line block), and the policy
        re-allocates share schedules over the epoch.  Every serviced
        client freezes to one :class:`~repro.sim.runner.RunSpec` whose
        ``start_ms`` is its promotion instant and whose frame count
        covers its active window.  A warm-up that leaves no steady-state
        frame clamps to zero (:func:`~repro.sim.runner.effective_warmup`)
        on every path.
        """
        from repro.sim.fleet import plan_fleet_timeline

        with obs_trace.active().span("session.plan", clients=len(self.clients)):
            return plan_fleet_timeline(
                self,
                system=system,
                n_frames=n_frames,
                seed=seed,
                warmup_frames=warmup_frames,
            )


# ---------------------------------------------------------------------------
# Timeline output
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Epoch:
    """One planning window between consecutive session events.

    ``decisions`` covers the roster present during the epoch, in
    admission-priority order (clients already being serviced first, by
    service start, then waiters by arrival), with ``client_index``
    naming session indices; ``serviced`` lists the indices that actually
    render during the epoch.

    ``placements`` names the server each serviced client renders on
    this epoch and ``servers`` holds one
    :class:`~repro.sim.metrics.ServerWindow` of occupancy per up server;
    a one-server session places everyone on ``"server"``.
    """

    start_ms: float
    end_ms: float
    decisions: tuple[AdmissionDecision, ...]
    serviced: tuple[int, ...]
    placements: tuple[tuple[int, str], ...] = ()
    servers: tuple[ServerWindow, ...] = ()

    @property
    def queued(self) -> tuple[int, ...]:
        """Session indices waiting in the admission queue this epoch."""
        return tuple(
            d.client_index for d in self.decisions if d.action == "queue"
        )

    def server_of(self, client: int) -> str | None:
        """The fleet server a client renders on this epoch (None: none)."""
        for index, name in self.placements:
            if index == client:
                return name
        return None


@dataclass(frozen=True)
class ClientTimeline:
    """One client's fate across the whole session.

    ``start_ms``/``end_ms`` bound the client's *service* window on the
    session clock (``None`` start: never serviced; ``None`` end: ran to
    the session's end).  ``run`` is the frozen executable spec, absent
    for clients that were rejected, or left while still queued.

    ``servers`` is the client's placement history as ``(t_ms, server)``
    steps, where ``None`` marks a parked span (displaced with nowhere
    to go, rendering at the starvation share), and ``migrations`` counts
    its moves between servers.
    """

    index: int
    spec: ClientSpec
    joined_ms: float
    start_ms: float | None
    end_ms: float | None
    run: RunSpec | None
    servers: tuple[tuple[float, str | None], ...] = ()
    migrations: int = 0

    @property
    def serviced(self) -> bool:
        """True when the client rendered at least one epoch."""
        return self.run is not None

    @property
    def queued_ms(self) -> float:
        """Time spent waiting in the admission queue before service."""
        if self.start_ms is None:
            return float("nan")
        return self.start_ms - self.joined_ms


@dataclass(frozen=True)
class SessionTimeline:
    """The planner's full output: epochs plus per-client verdicts."""

    session: Session
    n_frames: int
    duration_ms: float
    epochs: tuple[Epoch, ...]
    clients: tuple[ClientTimeline, ...]

    @property
    def specs(self) -> tuple[RunSpec, ...]:
        """One frozen spec per serviced client, in session index order."""
        return tuple(c.run for c in self.clients if c.run is not None)

    @property
    def serviced_indices(self) -> tuple[int, ...]:
        """Session indices of the clients that actually run."""
        return tuple(c.index for c in self.clients if c.run is not None)

    def client(self, index: int) -> ClientTimeline:
        """The timeline of one session client."""
        if not 0 <= index < len(self.clients):
            raise ConfigurationError(
                f"no session client {index}; session has {len(self.clients)}"
            )
        return self.clients[index]

    @property
    def server_stats(self):
        """Per-server utilisation/migration aggregates of the session.

        One :class:`~repro.sim.metrics.ServerStats` per server that was
        ever up, folded from the epochs'
        :class:`~repro.sim.metrics.ServerWindow` rows: a one-server
        session reports a single ``"server"`` row.
        """
        return aggregate_server_stats(
            [window for epoch in self.epochs for window in epoch.servers]
        )


# ---------------------------------------------------------------------------
# Motion-coupled event generation
# ---------------------------------------------------------------------------


def events_from_motion(
    trace,
    degraded: "NetworkProfile | NetworkConditions | str",
    recovered: "NetworkProfile | NetworkConditions | str",
    client: int = 0,
    threshold: float = 0.5,
    min_dwell_ms: float = 200.0,
) -> tuple[ProfileSwitch, ...]:
    """Synthesize degraded-link ``ProfileSwitch`` events from head motion.

    The paper's controller exploits the motion/workload correlation
    (Sec. 4.1, Fig. 8); on mmWave-class links the same bursts also break
    the radio — fast head sweeps defeat beam alignment, so high
    head-velocity windows coincide with throughput collapses.  This
    helper scans a :class:`~repro.motion.traces.MotionTrace` for
    sustained high-activity windows (``activity >= threshold`` for at
    least ``min_dwell_ms``) and couples them to the link: the client
    roams onto ``degraded`` (typically a checked-in ``data/`` 4G/5G
    trace) at each window start and back onto ``recovered`` at each
    window end.  Determinism is inherited from the trace: the same
    (trace seed, thresholds) pair always emits the same events.

    Windows still open at the trace's end emit only their opening
    switch; a window starting at the very first sample starts at the
    second sample instead (session events must fall strictly after
    t = 0).  The returned events plug straight into
    :attr:`Session.events` alongside any hand-written timeline.
    """
    degraded_profile = as_profile(degraded)
    recovered_profile = as_profile(recovered)
    if not 0 < threshold <= 1:
        raise ConfigurationError(
            f"activity threshold must be in (0, 1], got {threshold}"
        )
    if min_dwell_ms <= 0:
        raise ConfigurationError(
            f"min_dwell_ms must be > 0, got {min_dwell_ms}"
        )
    if client < 0:
        raise ConfigurationError(f"client index must be >= 0, got {client}")
    samples = list(trace)
    events: list[ProfileSwitch] = []
    window_start: float | None = None
    for position, sample in enumerate(samples):
        active = sample.activity >= threshold
        if active and window_start is None:
            window_start = sample.time_ms
            if window_start <= 0 and position + 1 < len(samples):
                window_start = samples[position + 1].time_ms
        elif not active and window_start is not None:
            if sample.time_ms - window_start >= min_dwell_ms:
                events.append(
                    ProfileSwitch(window_start, client, degraded_profile)
                )
                events.append(
                    ProfileSwitch(sample.time_ms, client, recovered_profile)
                )
            window_start = None
    if window_start is not None and samples:
        closing = samples[-1].time_ms
        if closing - window_start >= min_dwell_ms and window_start > 0:
            events.append(ProfileSwitch(window_start, client, degraded_profile))
    return tuple(events)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionResult:
    """Per-client simulation results plus the timeline they executed.

    ``per_client`` aligns with :attr:`SessionTimeline.serviced_indices`.
    Per-epoch aggregation maps each session epoch onto every client's
    local clock (records start at the client's own t = 0) via
    :func:`~repro.sim.metrics.window_stats`.
    """

    timeline: SessionTimeline
    per_client: tuple[SimulationResult, ...]

    def result_for(self, index: int) -> SimulationResult | None:
        """The run result of one session client (None if never serviced)."""
        for serviced, result in zip(
            self.timeline.serviced_indices, self.per_client
        ):
            if serviced == index:
                return result
        return None

    def client_window(
        self, index: int, start_ms: float, end_ms: float
    ) -> WindowStats | None:
        """Aggregate one client's frames inside a *session-clock* window.

        The window translates onto the client's local clock (local 0 is
        its service start); returns None when the window ends before the
        client ever started.
        """
        client = self.timeline.client(index)
        result = self.result_for(index)
        if result is None or client.start_ms is None:
            return None
        local_start = max(start_ms - client.start_ms, 0.0)
        local_end = end_ms - client.start_ms
        if local_end <= local_start:
            return None
        return window_stats(result.records, local_start, local_end)

    def epoch_stats(self, index: int) -> tuple[WindowStats | None, ...]:
        """One :class:`~repro.sim.metrics.WindowStats` per session epoch."""
        return tuple(
            self.client_window(index, epoch.start_ms, epoch.end_ms)
            for epoch in self.timeline.epochs
        )

    @property
    def mean_fps(self) -> float:
        """Average per-client frame rate across serviced clients."""
        if not self.per_client:
            return float("nan")
        return float(np.mean([r.measured_fps for r in self.per_client]))

    @property
    def mean_e1_deg(self) -> float:
        """Average steady-state eccentricity across serviced clients."""
        if not self.per_client:
            return float("nan")
        return float(np.mean([r.mean_e1_deg for r in self.per_client]))

    @property
    def mean_latency_ms(self) -> float:
        """Average end-to-end latency across serviced clients."""
        if not self.per_client:
            return float("nan")
        return float(np.mean([r.mean_latency_ms for r in self.per_client]))

    @property
    def clients_meeting_fps(self) -> int:
        """How many serviced clients hold the 90 Hz requirement."""
        return sum(1 for r in self.per_client if r.meets_target_fps)


def simulate_session(
    session: Session,
    n_frames: int = 200,
    seed: int = 0,
    system: str = "qvr",
    engine: BatchEngine | None = None,
    warmup_frames: int | None = None,
) -> SessionResult:
    """Plan and execute an event-driven session end to end.

    The timeline's frozen specs run through the batch engine (the
    caller's, or the default serial one), so parallel and caching
    engines accelerate churn studies exactly as they accelerate figure
    sweeps; clients the admission controller never serviced contribute
    no result but keep their verdicts on the timeline.
    """
    timeline = session.timeline(
        system=system, n_frames=n_frames, seed=seed, warmup_frames=warmup_frames
    )
    chosen = engine if engine is not None else default_engine()
    batch = chosen.run_specs(timeline.specs)
    return SessionResult(
        timeline=timeline,
        per_client=tuple(batch[spec] for spec in timeline.specs),
    )
