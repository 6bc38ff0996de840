"""Elastic render fleets: multi-server capacity, failures, migration.

The paper's collaborative design assumes the remote tier can absorb
whatever the mobile clients offload; surveys of synchronous multi-party
VR stress the opposite — real sessions are bounded by *elastic,
failure-prone* server infrastructure.  This module turns the
reproduction's server from a scalar capacity into a simulated cluster:

* :class:`RenderFleet` — a roster of **named**
  :class:`~repro.sim.server.RenderServer`s with a pluggable
  :class:`PlacementPolicy` (first-fit, least-loaded, sticky/affinity)
  mapping serviced clients onto servers at every planning epoch;
* the capacity events extending the session vocabulary
  (:mod:`repro.sim.session`) — :class:`ServerUp`, :class:`ServerDown`
  (with graceful ``drain``), and :class:`ServerFail` — so
  :meth:`~repro.sim.session.Session.timeline` re-plans placement at
  every capacity *or* client event;
* :func:`plan_fleet_timeline` — the one epoch walker behind
  ``Session.timeline()``.  Every session plans here; a session on a
  bare :class:`~repro.sim.server.RenderServer` is a one-server fleet.  On shrink or failure, displaced clients are
  **migrated** to a surviving server (a configurable migration penalty
  is spliced into their ``(start_ms, share)`` schedules as a starvation
  window while state transfers) or — under the naive ``"requeue"``
  mode — dropped to the back of the admission queue FCFS behind
  incumbents, where they render at the starvation share until a later
  re-planning event re-seats them.

Planning invariants:

* incumbents whose server survives are never re-placed (no spontaneous
  consolidation churn); the placement policy decides only for new,
  promoted, and displaced clients;
* a displaced client that fits nowhere is **parked** — it keeps its one
  contiguous :class:`~repro.sim.runner.RunSpec` but renders at
  :data:`STALL_SHARE` until capacity returns (the connection survives
  the outage, the frames mostly do not);
* fleet servers are homogeneous in hardware
  (:class:`~repro.gpu.config.RemoteServerConfig`) and may differ only in
  capacity, so a mid-run migration never changes the render-time model
  behind a frozen spec;
* everything stays deterministic and cache-stable: the walker emits
  ordinary specs whose schedules carry the whole story, so a session on
  a bare ``RenderServer`` and the same session on a one-server fleet of
  that server plan bit-identically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

from repro import constants
from repro.errors import ConfigurationError
from repro.network.profile import (
    AllocatedProfile,
    NetworkProfile,
    ShareSchedule,
    SwitchedProfile,
    as_profile,
)
from repro.obs import trace as obs_trace
from repro.sim.metrics import ServerWindow
from repro.sim.runner import CLIENT_SEED_STRIDE, RunSpec, effective_warmup
from repro.sim.server import (
    AdmissionDecision,
    ClientDemand,
    OVERFLOW_MODES,
    RenderServer,
)
from repro.sim.session import (
    _HORIZON_SLACK,
    CapacityEvent,
    ClientTimeline,
    Epoch,
    Join,
    Leave,
    ProfileSwitch,
    Session,
    SessionTimeline,
    _client_spec,
)
from repro.sim.systems import PlatformConfig

__all__ = [
    "ServerUp",
    "ServerDown",
    "ServerFail",
    "PlacementPolicy",
    "FirstFitPlacement",
    "LeastLoadedPlacement",
    "StickyPlacement",
    "PLACEMENTS",
    "PLACEMENT_NAMES",
    "placement_by_name",
    "MIGRATION_MODES",
    "STALL_SHARE",
    "RenderFleet",
    "fleet_from_payload",
    "plan_fleet_timeline",
]

#: Starvation share a parked or state-transferring client renders (and
#: transmits) at: the session keeps the connection alive, but the frames
#: all but stop — small enough to gut the tail frame rate, positive so
#: schedules stay valid and the run keeps advancing deterministically.
STALL_SHARE = 0.05

#: How a fleet treats clients displaced by a shrink or failure.
MIGRATION_MODES = ("migrate", "requeue")


# ---------------------------------------------------------------------------
# Capacity events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServerUp(CapacityEvent):
    """A fleet server comes (back) online; its capacity joins the pool."""

    rank = 2


@dataclass(frozen=True)
class ServerDown(CapacityEvent):
    """A planned scale-down.  ``drain=True`` (the default) migrates the
    displaced clients gracefully — state was transferred while the server
    drained, so no migration penalty applies; ``drain=False`` yanks the
    server, and re-seated clients pay the penalty."""

    rank = 0

    drain: bool = True


@dataclass(frozen=True)
class ServerFail(CapacityEvent):
    """An abrupt failure: in-flight state is lost, every displaced client
    pays the migration penalty when re-seated (even on the same server
    after a later :class:`ServerUp`)."""

    rank = 0


# ---------------------------------------------------------------------------
# Placement policies
# ---------------------------------------------------------------------------


class PlacementPolicy(ABC):
    """Chooses a server for one client at one planning boundary."""

    name: str = "abstract"

    @abstractmethod
    def place(
        self,
        candidates: tuple[str, ...],
        loads: dict[str, float],
        capacities: dict[str, float],
        last_server: str | None,
    ) -> str:
        """Pick one of ``candidates`` (non-empty, fleet declaration order,
        all with room for the client).  ``loads`` holds the weight already
        placed this epoch; ``last_server`` is where the client last
        rendered (None for a first placement)."""


class FirstFitPlacement(PlacementPolicy):
    """The first declared server with room — the dense-packing baseline."""

    name = "first-fit"

    def place(self, candidates, loads, capacities, last_server):
        """Return the first candidate in fleet declaration order."""
        return candidates[0]


class LeastLoadedPlacement(PlacementPolicy):
    """The server with the lowest capacity-relative load (ties: declaration
    order) — spreads clients, keeping headroom for failover."""

    name = "least-loaded"

    def place(self, candidates, loads, capacities, last_server):
        """Return the candidate with the lowest load/capacity ratio."""
        best = min(
            range(len(candidates)),
            key=lambda i: (loads[candidates[i]] / capacities[candidates[i]], i),
        )
        return candidates[best]


class StickyPlacement(PlacementPolicy):
    """Affinity: the client's previous server when it has room (cheap
    re-attach, warm caches), least-loaded otherwise."""

    name = "sticky"

    def place(self, candidates, loads, capacities, last_server):
        """Return ``last_server`` when eligible, else least-loaded."""
        if last_server is not None and last_server in candidates:
            return last_server
        return LeastLoadedPlacement().place(
            candidates, loads, capacities, last_server
        )


#: Registry of placement policies by CLI name.
PLACEMENTS: dict[str, PlacementPolicy] = {
    policy.name: policy
    for policy in (FirstFitPlacement(), LeastLoadedPlacement(), StickyPlacement())
}

#: Placement-policy names, first-fit (the default) first.
PLACEMENT_NAMES: tuple[str, ...] = tuple(PLACEMENTS)


def placement_by_name(name: str) -> PlacementPolicy:
    """Resolve a placement policy by its registry name."""
    key = name.strip().lower()
    if key not in PLACEMENTS:
        raise ConfigurationError(
            f"unknown placement policy {name!r}; known: {PLACEMENT_NAMES}"
        )
    return PLACEMENTS[key]


# ---------------------------------------------------------------------------
# The fleet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RenderFleet:
    """A roster of named rendering servers behind one session.

    Attributes
    ----------
    servers:
        ``(name, RenderServer)`` pairs (a mapping is accepted and
        normalised); declaration order is the deterministic tie-break
        every placement policy falls back to.  Servers must share one
        :class:`~repro.gpu.config.RemoteServerConfig` and tick grid
        (homogeneous hardware — capacities may differ), so migrating a
        client never changes the render-time model inside its frozen
        spec.
    placement:
        Placement policy name (:data:`PLACEMENT_NAMES`).
    migration:
        ``"migrate"`` re-seats displaced clients immediately through the
        placement policy; ``"requeue"`` (the naive baseline the failover
        experiment beats) drops clients displaced by an *unplanned*
        outage (failure, non-drained down) to the back of the queue,
        where they stall until a later re-planning event re-admits them
        — drained scale-downs migrate gracefully under both modes.
    migration_penalty_ms:
        Starvation window spliced into a re-seated client's server
        schedule while its state transfers; clamped to the epoch (the
        next re-plan re-syncs).  Drained scale-downs skip it.
    initial:
        Names up at t = 0 (default: every declared server).  Servers not
        initially up join the pool through :class:`ServerUp` events.
    overflow:
        Fate of a *new* client no server can seat: ``"queue"`` (wait for
        capacity, the default), ``"reject"`` (final), or ``"degrade"``
        (placed anyway by the placement policy over every up server; a
        server loaded past its capacity serves all its clients at
        ``capacity / load`` of full demand).  Displaced incumbents are
        never rejected: they park or queue when nothing can seat them.
    """

    servers: tuple[tuple[str, RenderServer], ...]
    placement: str = "first-fit"
    migration: str = "migrate"
    migration_penalty_ms: float = 120.0
    initial: tuple[str, ...] | None = None
    overflow: str = "queue"

    def __post_init__(self) -> None:
        pairs = (
            tuple(self.servers.items())
            if isinstance(self.servers, dict)
            else tuple(tuple(pair) for pair in self.servers)
        )
        object.__setattr__(self, "servers", pairs)
        if not pairs:
            raise ConfigurationError("a fleet needs at least one server")
        names = [name for name, _ in pairs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate fleet server names: {names}")
        for name, server in pairs:
            if not isinstance(name, str) or not name:
                raise ConfigurationError(
                    f"fleet server names must be non-empty strings, got {name!r}"
                )
            if not isinstance(server, RenderServer):
                raise ConfigurationError(
                    f"fleet server {name!r} must be a RenderServer, got "
                    f"{type(server).__name__}"
                )
        reference = pairs[0][1]
        for name, server in pairs[1:]:
            if server.config != reference.config or server.tick_ms != reference.tick_ms:
                raise ConfigurationError(
                    f"fleet servers must share one hardware config and tick "
                    f"grid (capacities may differ); {name!r} disagrees with "
                    f"{pairs[0][0]!r}"
                )
        placement_by_name(self.placement)  # raises on unknown names
        if self.migration not in MIGRATION_MODES:
            raise ConfigurationError(
                f"unknown migration mode {self.migration!r}; "
                f"known: {MIGRATION_MODES}"
            )
        if self.overflow not in OVERFLOW_MODES:
            raise ConfigurationError(
                f"unknown fleet overflow mode {self.overflow!r}; "
                f"known: {OVERFLOW_MODES}"
            )
        if self.migration_penalty_ms < 0:
            raise ConfigurationError(
                f"migration_penalty_ms must be >= 0, got "
                f"{self.migration_penalty_ms}"
            )
        if self.initial is not None:
            initial = tuple(self.initial)
            object.__setattr__(self, "initial", initial)
            unknown = [name for name in initial if name not in names]
            if unknown:
                raise ConfigurationError(
                    f"initial servers {unknown} not in the fleet: {names}"
                )

    @classmethod
    def from_capacities(
        cls, capacities: dict[str, float], **kwargs
    ) -> "RenderFleet":
        """A homogeneous fleet from ``{name: capacity_clients}``."""
        return cls(
            servers=tuple(
                (name, RenderServer(capacity_clients=float(capacity)))
                for name, capacity in capacities.items()
            ),
            **kwargs,
        )

    @property
    def names(self) -> tuple[str, ...]:
        """Server names in declaration order."""
        return tuple(name for name, _ in self.servers)

    def server(self, name: str) -> RenderServer:
        """The named server."""
        for candidate, server in self.servers:
            if candidate == name:
                return server
        raise ConfigurationError(
            f"no fleet server {name!r}; known: {self.names}"
        )

    def initially_up(self, name: str) -> bool:
        """True when the named server is up at t = 0."""
        return self.initial is None or name in self.initial

    @property
    def total_capacity(self) -> float:
        """Capacity of the whole declared roster, in client-equivalents."""
        return sum(server.capacity for _, server in self.servers)

    def validate_events(self, events) -> None:
        """Replay up/down state so inconsistent capacity timelines fail
        at session build time (unknown server, double-down, up-while-up)."""
        up = {name: self.initially_up(name) for name in self.names}
        for event in sorted(events, key=lambda e: (e.t_ms, e.rank)):
            if event.server not in up:
                raise ConfigurationError(
                    f"{type(event).__name__} at {event.t_ms:g} ms names "
                    f"unknown server {event.server!r}; fleet has {self.names}"
                )
            if isinstance(event, ServerUp):
                if up[event.server]:
                    raise ConfigurationError(
                        f"ServerUp at {event.t_ms:g} ms: {event.server!r} "
                        "is already up"
                    )
                up[event.server] = True
            elif isinstance(event, (ServerDown, ServerFail)):
                if not up[event.server]:
                    raise ConfigurationError(
                        f"{type(event).__name__} at {event.t_ms:g} ms: "
                        f"{event.server!r} is already down"
                    )
                up[event.server] = False
            else:
                raise ConfigurationError(
                    f"unknown capacity event {type(event).__name__}"
                )


def fleet_from_payload(payload: object, source: str = "fleet") -> RenderFleet:
    """Build a :class:`RenderFleet` from a decoded JSON description.

    The one fleet schema shared by ``repro scenarios --fleet`` files and
    the ``"fleet"`` section of demand scenarios (:mod:`repro.sim.demand`)::

        {"servers": {"a": 2.0, "b": {"capacity": 1.0}},
         "placement": "least-loaded",      # optional
         "migration": "migrate",           # optional: migrate | requeue
         "migration_penalty_ms": 120.0,    # optional
         "initial": ["a"],                 # optional: names up at t = 0
         "overflow": "queue"}              # optional: queue | reject | degrade

    Server values are a bare capacity (client-equivalents) or an object
    with a ``"capacity"`` key.  ``source`` names the payload's origin in
    error messages.
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("servers"), dict):
        raise ConfigurationError(
            f'{source} must be a JSON object with a "servers" mapping'
        )
    known = {
        "servers", "placement", "migration", "migration_penalty_ms",
        "initial", "overflow",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown fleet keys {unknown} in {source}; known: {sorted(known)}"
        )
    capacities: dict[str, float] = {}
    for name, value in payload["servers"].items():
        if isinstance(value, dict):
            value = value.get("capacity")
        try:
            capacities[str(name)] = float(value)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"bad capacity {value!r} for fleet server {name!r} in {source}"
            ) from None
    kwargs = {
        key: payload[key]
        for key in ("placement", "migration", "overflow")
        if key in payload
    }
    if "migration_penalty_ms" in payload:
        kwargs["migration_penalty_ms"] = float(payload["migration_penalty_ms"])
    if "initial" in payload:
        kwargs["initial"] = tuple(str(n) for n in payload["initial"])
    return RenderFleet.from_capacities(capacities, **kwargs)


#: Window-local share schedule of a fully stalled epoch.
_STALLED = ((0.0, STALL_SHARE),)


# ---------------------------------------------------------------------------
# Per-client planner state
# ---------------------------------------------------------------------------


class _ClientState:
    """Mutable per-client bookkeeping while the walker crosses the epochs:
    membership, link history, share schedules, placement and queue rank."""

    def __init__(
        self,
        index: int,
        spec,
        joined_ms: float,
        resolved: PlatformConfig,
    ) -> None:
        self.index = index
        self.spec = spec
        self.joined_ms = joined_ms
        self.resolved = resolved
        self.left_ms: float | None = None
        self.rejected = False
        self.profile_history: list[tuple[float, NetworkProfile]] = [
            (0.0, as_profile(resolved.network))
        ]
        self.service_start: float | None = None
        self.service_end: float | None = None
        self.server_segments: list[tuple[float, float]] = []
        self.downlink_segments: list[tuple[float, float]] = []
        self.peak_roster = 0
        self.assigned: str | None = None
        self.last_server: str | None = None
        self.placement_history: list[tuple[float, str | None]] = []
        self.migrations = 0
        self.queue_since = joined_ms
        self.requeued = False
        self.holdoff_ms: float | None = None
        self.penalty_pending = False

    def present_at(self, t_ms: float) -> bool:
        """True when the client is in the session at ``t_ms``."""
        return (
            self.joined_ms <= t_ms and self.left_ms is None and not self.rejected
        )

    def leave(self, t_ms: float) -> None:
        """Mark the client gone at ``t_ms``, ending any open service."""
        self.left_ms = t_ms
        if self.service_start is not None and self.service_end is None:
            self.service_end = t_ms

    def switch(self, t_ms: float, profile: NetworkProfile) -> None:
        """Record a network-profile switch taking effect at ``t_ms``."""
        self.profile_history.append((t_ms, profile))

    def profile(self) -> NetworkProfile:
        """The client's link history so far, as one sampleable profile."""
        if len(self.profile_history) == 1:
            return self.profile_history[0][1]
        return SwitchedProfile(
            segments=tuple(self.profile_history),
            label=f"{self.profile_history[0][1].name}:switched",
        )

    def _switched_network(
        self, session: Session, default_network, shared_start: bool
    ) -> SwitchedProfile:
        """The executable composite link of a client that roamed mid-run.

        A client that began on the shared session link was contending on
        the session downlink until its first switch, so that span must
        sample the *allocated* view of the default link (the client's
        scheduled downlink share, with the session's jitter growth) —
        not the raw full-capacity link.  Splicing the allocation into
        the profile here keeps the pre-switch epochs bit-identical to
        the same session without the roam; the post-switch segments are
        the client's private links, sampled at full capacity.
        """
        segments = list(self.profile_history)
        if shared_start and self.downlink_segments:
            # Session-time shares; the first segment starts at the
            # client's service start, normalised to the 0-origin the
            # schedule requires (instants before it are never sampled).
            shares = tuple(self.downlink_segments)
            shares = ((0.0, shares[0][1]),) + shares[1:]
            segments[0] = (
                0.0,
                AllocatedProfile(
                    base=as_profile(default_network),
                    segments=shares,
                    n_clients=max(self.peak_roster, 1),
                    label=session.policy,
                ),
            )
        return SwitchedProfile(
            segments=tuple(segments),
            label=f"{self.profile_history[0][1].name}:switched",
        )

    @property
    def switched(self) -> bool:
        """True once the client has changed network profile."""
        return len(self.profile_history) > 1

    def record_segments(
        self,
        t0: float,
        server_segments,
        downlink_segments,
        roster_size: int,
    ) -> None:
        """Append one epoch's window-local share schedules at offset ``t0``."""
        if self.service_start is None:
            self.service_start = t0
        self.peak_roster = max(self.peak_roster, roster_size)
        for start, share in server_segments:
            _append_merged(self.server_segments, t0 + start, share)
        for start, share in downlink_segments:
            _append_merged(self.downlink_segments, t0 + start, share)

    def assign(self, t_ms: float, server: str) -> bool:
        """Seat the client; returns True when this is a cross-server move."""
        migrated = self.last_server is not None and self.last_server != server
        if migrated:
            self.migrations += 1
            obs_trace.active().instant(
                "fleet.migrate", client=self.index, t_ms=t_ms,
                src=self.last_server, dst=server,
            )
        if not self.placement_history or self.placement_history[-1][1] != server:
            self.placement_history.append((t_ms, server))
        self.assigned = server
        self.last_server = server
        self.requeued = False
        self.holdoff_ms = None
        return migrated

    def park(self, t_ms: float) -> None:
        """Record a span with no server (rendering at the stall share)."""
        if not self.placement_history or self.placement_history[-1][1] is not None:
            self.placement_history.append((t_ms, None))
            obs_trace.active().instant(
                "fleet.park", client=self.index, t_ms=t_ms
            )

    def displace(self, t_ms: float, drained: bool, requeue: bool) -> None:
        """The client's server went away; decide its queueing fate.

        A drained scale-down is planned: the client migrates gracefully
        (no penalty) and keeps incumbent priority even under the naive
        ``"requeue"`` mode, which models the handling of *unplanned*
        displacement only.
        """
        self.assigned = None
        obs_trace.active().instant(
            "fleet.displace", client=self.index, t_ms=t_ms,
            drained=drained, requeue=requeue,
        )
        if not drained:
            self.penalty_pending = True
        if requeue and not drained:
            self.requeued = True
            self.queue_since = t_ms
            self.holdoff_ms = t_ms

    def priority(self) -> tuple:
        """Placement order: seated/serviced incumbents, then waiters FCFS.

        Incumbents go first by service start, so re-placement never evicts
        or demotes a running client; freed capacity then goes to the
        oldest waiting client that fits (greedy first-fit, so a light
        late-comer may pass a heavy queued client instead of head-of-line
        blocking).
        """
        incumbent = self.assigned is not None or (
            self.service_start is not None and not self.requeued
        )
        if incumbent:
            start = (
                self.service_start
                if self.service_start is not None
                else self.joined_ms
            )
            return (0, start, self.joined_ms, self.index)
        return (1, self.queue_since, self.joined_ms, self.index)

    def freeze(
        self,
        session: Session,
        system: str,
        n_frames: int,
        seed: int,
        warmup_frames: int | None,
        duration_ms: float,
        default_network,
    ) -> ClientTimeline:
        """Close the books: one RunSpec if the client was ever serviced."""
        if self.service_start is None:
            return ClientTimeline(
                index=self.index,
                spec=self.spec,
                joined_ms=self.joined_ms,
                start_ms=None,
                end_ms=self.left_ms,
                run=None,
                servers=tuple(self.placement_history),
                migrations=self.migrations,
            )
        start = self.service_start
        end = self.service_end
        active_ms = (end if end is not None else duration_ms) - start
        frames = max(1, int(round(n_frames * active_ms / duration_ms)))
        warmup = effective_warmup(
            frames, effective_warmup(n_frames) if warmup_frames is None else warmup_frames
        )
        # A client is on the shared session downlink only while it holds
        # the default link: an override privatises it from the start; a
        # mid-session switch privatises it *from the switch on* (the
        # pre-switch span keeps its allocated share of the session link
        # — see _switched_network — so a later roam cannot retroactively
        # rewrite epochs the client spent contending on the downlink).
        shared_start = self.resolved.network == default_network
        shared_link = shared_start and not self.switched
        platform = (
            replace(
                self.resolved,
                network=self._switched_network(session, default_network, shared_start),
            )
            if self.switched
            else self.resolved
        )
        run = RunSpec(
            system=self.spec.system if self.spec.system is not None else system,
            app=self.spec.app,
            platform=platform,
            n_frames=frames,
            seed=seed + CLIENT_SEED_STRIDE * self.index,
            warmup_frames=warmup,
            shared_clients=max(self.peak_roster, 1),
            shared_downlink=shared_link,
            policy=session.policy,
            server_allocation=tuple(
                (s - start, share) for s, share in self.server_segments
            ),
            downlink_allocation=(
                tuple((s - start, share) for s, share in self.downlink_segments)
                if shared_link
                else None
            ),
            start_ms=start,
        )
        return ClientTimeline(
            index=self.index,
            spec=self.spec,
            joined_ms=self.joined_ms,
            start_ms=start,
            end_ms=end,
            run=run,
            servers=tuple(self.placement_history),
            migrations=self.migrations,
        )


def _append_merged(
    segments: list[tuple[float, float]], start_ms: float, share: float
) -> None:
    """Append a segment, merging runs of identical shares across epochs."""
    if segments and segments[-1][1] == share:
        return
    segments.append((start_ms, share))


# ---------------------------------------------------------------------------
# The epoch walker
# ---------------------------------------------------------------------------


def plan_fleet_timeline(
    session: Session,
    system: str = "qvr",
    n_frames: int = 200,
    seed: int = 0,
    warmup_frames: int | None = None,
) -> SessionTimeline:
    """Epoch-by-epoch placement, migration, and re-allocation over a fleet.

    The one epoch walker behind ``Session.timeline()``: every session
    plans here, a session without a fleet on a one-server fleet
    named ``"server"`` built from its :attr:`~repro.sim.session.Session.server`
    (default :class:`~repro.sim.server.RenderServer`) with that server's
    overflow mode.  Every client *or* capacity event opens a planning
    boundary where departures and capacity losses apply first (the
    enforced same-timestamp order), displaced clients are re-seated by
    the placement policy or parked, freed capacity promotes waiters
    FCFS, and each server's rendering throughput is re-allocated among
    the clients placed on it while the session downlink is allocated
    across the whole serviced roster.  Under the ``"degrade"`` overflow
    mode a client no server can seat is placed anyway, and every server
    loaded past its capacity serves all its clients at
    ``capacity / load``.  The output is an ordinary
    :class:`~repro.sim.session.SessionTimeline` whose epochs carry
    placements and per-server occupancy windows.
    """
    fleet = session.fleet
    if fleet is None:
        server = session.server if session.server is not None else RenderServer()
        fleet = RenderFleet(servers=(("server", server),), overflow=server.overflow)
    assert session.platform is not None
    duration_ms = n_frames * constants.FRAME_BUDGET_MS
    horizon_ms = duration_ms * _HORIZON_SLACK
    ordered = session.ordered_events()
    for event in ordered:
        if event.t_ms >= duration_ms:
            raise ConfigurationError(
                f"event at {event.t_ms:g} ms falls outside the nominal "
                f"session ({n_frames} frames = {duration_ms:g} ms)"
            )
    default_network = session.platform.network
    placement = placement_by_name(fleet.placement)
    servers = dict(fleet.servers)
    capacities = {name: server.capacity for name, server in fleet.servers}

    states = [
        _ClientState(index, spec, 0.0, spec.resolved_platform(session.platform))
        for index, spec in enumerate(session.clients)
    ]
    up = {name: fleet.initially_up(name) for name in fleet.names}

    events_at: dict[float, list] = {}
    for event in ordered:
        events_at.setdefault(event.t_ms, []).append(event)
    boundaries = sorted(set(events_at) | {0.0})

    tracer = obs_trace.active()
    epochs: list[Epoch] = []
    for k, t0 in enumerate(boundaries):
        t1 = boundaries[k + 1] if k + 1 < len(boundaries) else duration_ms
        drained_now: set[str] = set()
        lost_now: set[str] = set()
        for event in events_at.get(t0, ()):
            if isinstance(event, Join):
                spec = _client_spec(event.spec)
                states.append(
                    _ClientState(
                        len(states),
                        spec,
                        t0,
                        spec.resolved_platform(session.platform),
                    )
                )
            elif isinstance(event, Leave):
                states[event.client].leave(t0)
            elif isinstance(event, ProfileSwitch):
                states[event.client].switch(t0, event.profile)
            elif isinstance(event, ServerUp):
                up[event.server] = True
            elif isinstance(event, (ServerDown, ServerFail)):
                up[event.server] = False
                if isinstance(event, ServerDown) and event.drain:
                    drained_now.add(event.server)
                else:
                    lost_now.add(event.server)
        for state in states:
            if state.assigned is None:
                continue
            if not state.present_at(t0):
                state.assigned = None  # a leaver frees its seat silently
            elif (
                not up[state.assigned]
                or state.assigned in drained_now
                or state.assigned in lost_now
            ):
                # Down servers displace their clients even when a same-t
                # ServerUp brings the box straight back: a fail/up blip
                # still lost the in-flight state (penalty on re-seat).
                state.displace(
                    t0,
                    drained=state.assigned in drained_now,
                    requeue=fleet.migration == "requeue",
                )

        roster = sorted(
            (s for s in states if s.present_at(t0)),
            key=_ClientState.priority,
        )
        demands = tuple(
            ClientDemand.estimate(
                app=s.spec.app,
                # The allocation planner samples the profile with the
                # channel's seed, so Markov links replay the same state
                # sequence the run will observe.
                profile=s.profile(),
                seed=seed + CLIENT_SEED_STRIDE * s.index + 7,
                weight=s.spec.weight,
                server=fleet.servers[0][1].config,
            )
            for s in roster
        )
        up_names = tuple(name for name in fleet.names if up[name])
        loads = {name: 0.0 for name in up_names}
        for s in roster:
            if s.assigned is not None:
                loads[s.assigned] += s.spec.weight

        # Unseated clients' verdicts ("queue"/"reject"); a rejection is
        # final, only queued clients are re-tried at later boundaries.
        unseated: dict[int, str] = {}
        arrivals: dict[str, list[int]] = {}
        migrated_in: dict[str, list[int]] = {}
        for s, demand in zip(roster, demands):
            if s.assigned is not None:
                continue
            candidates = tuple(
                name
                for name in up_names
                if servers[name].fits(demand.weight, loads[name])
            )
            if not candidates and fleet.overflow == "degrade":
                candidates = up_names  # seated anyway, at degraded service
            if not candidates or s.holdoff_ms == t0:
                if s.service_start is None and fleet.overflow == "reject":
                    s.rejected = True
                    unseated[s.index] = "reject"
                else:
                    unseated[s.index] = "queue"
                continue
            target = placement.place(candidates, loads, capacities, s.last_server)
            loads[target] += demand.weight
            moved = s.assign(t0, target)
            arrivals.setdefault(target, []).append(s.index)
            if moved:
                migrated_in.setdefault(target, []).append(s.index)

        # Only degrade-mode placement overloads a server; it then serves
        # every client placed on it at the same fraction of full demand.
        levels = {
            name: capacities[name] / load
            for name, load in loads.items()
            if load > capacities[name]
        }
        decisions = []
        for s in roster:
            if s.assigned is None:
                decisions.append(
                    AdmissionDecision(s.index, unseated[s.index], service_level=0.0)
                )
            elif s.assigned in levels:
                decisions.append(
                    AdmissionDecision(
                        s.index, "degrade", service_level=levels[s.assigned]
                    )
                )
            else:
                decisions.append(AdmissionDecision(s.index, "admit"))

        placed = [s for s in roster if s.assigned is not None]
        window_end = horizon_ms if k + 1 == len(boundaries) else t1
        window = window_end - t0
        if placed:
            # The downlink is shared session-wide, so its split is
            # computed over the whole placed roster; each server's
            # rendering throughput is split only within its own group.
            # When one server hosts everyone (the common single-server
            # case) the two calls would be argument-identical, so one
            # allocation serves both resources.
            placed_demands = tuple(
                d for s, d in zip(roster, demands) if s.assigned is not None
            )
            hosts = {s.assigned for s in placed}
            # min() rather than next(iter(...)): the set is a singleton on
            # this branch, but pulling its element via iteration order is
            # a determinism hazard the moment that invariant slips.
            session_alloc = servers[
                up_names[0] if len(hosts) > 1 else min(hosts)
            ].allocate(
                placed_demands,
                session.policy,
                horizon_ms=window,
                sharing_efficiency=session.sharing_efficiency,
                service_levels=tuple(levels.get(s.assigned, 1.0) for s in placed),
                start_ms=t0,
            )
            downlink_of = {
                s.index: a.downlink for s, a in zip(placed, session_alloc)
            }
            server_of: dict[int, ShareSchedule] = {}
            if len(hosts) == 1:
                for s, allocation in zip(placed, session_alloc):
                    server_of[s.index] = allocation.server
            else:
                for name in up_names:
                    group = [
                        (s, d)
                        for s, d in zip(roster, demands)
                        if s.assigned == name
                    ]
                    if not group:
                        continue
                    group_alloc = servers[name].allocate(
                        tuple(d for _, d in group),
                        session.policy,
                        horizon_ms=window,
                        sharing_efficiency=session.sharing_efficiency,
                        service_levels=(levels.get(name, 1.0),) * len(group),
                        start_ms=t0,
                    )
                    for (s, _), allocation in zip(group, group_alloc):
                        server_of[s.index] = allocation.server
            for s in placed:
                schedule = server_of[s.index]
                if s.penalty_pending and fleet.migration_penalty_ms > 0:
                    if fleet.migration_penalty_ms >= window:
                        schedule = ShareSchedule(_STALLED)
                    else:
                        schedule = schedule.with_stall(
                            fleet.migration_penalty_ms, STALL_SHARE
                        )
                s.penalty_pending = False
                s.record_segments(
                    t0,
                    schedule.segments,
                    downlink_of[s.index].segments,
                    len(placed),
                )
        for s in roster:
            # Parked: displaced with nowhere to go (or re-queued) — keep
            # the run alive at the stall share until capacity returns.
            if s.assigned is None and s.service_start is not None:
                s.park(t0)
                s.record_segments(t0, _STALLED, _STALLED, len(placed))
        epochs.append(
            Epoch(
                start_ms=t0,
                end_ms=t1,
                decisions=tuple(decisions),
                serviced=tuple(s.index for s in placed),
                placements=tuple((s.index, s.assigned) for s in placed),
                servers=tuple(
                    ServerWindow(
                        server=name,
                        start_ms=t0,
                        end_ms=t1,
                        capacity=capacities[name],
                        load=loads[name],
                        clients=tuple(
                            s.index for s in placed if s.assigned == name
                        ),
                        arrivals=tuple(arrivals.get(name, ())),
                        migrated_in=tuple(migrated_in.get(name, ())),
                    )
                    for name in up_names
                ),
            )
        )
        tracer.instant(
            "session.epoch", epoch=k, t0_ms=t0,
            roster=len(roster), serviced=len(placed),
        )

    client_rows = tuple(
        state.freeze(
            session=session,
            system=system,
            n_frames=n_frames,
            seed=seed,
            warmup_frames=warmup_frames,
            duration_ms=duration_ms,
            default_network=default_network,
        )
        for state in states
    )
    return SessionTimeline(
        session=session,
        n_frames=n_frames,
        duration_ms=duration_ms,
        epochs=tuple(epochs),
        clients=client_rows,
    )
