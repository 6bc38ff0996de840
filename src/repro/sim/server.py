"""Profile-aware rendering-server admission and scheduling.

The paper's planet-scale framing assumes one rendering server serving
many heterogeneous clients, and the multi-user systems it compares
against argue the server must *allocate* its resources, not merely split
them: Firefly plans per-client quality offline from each client's
capability, and Coterie schedules shared infrastructure explicitly.
This module is that server-side layer for the reproduction:

* :class:`RenderServer` — capacity accounting (in *client-equivalents*
  of rendering demand) plus the overflow mode that rejects, queues or
  degrades clients when a session oversubscribes the MCM GPU array (the
  session walker, :func:`repro.sim.fleet.plan_fleet_timeline`, applies
  it at every epoch);
* :class:`SchedulingPolicy` — pluggable allocation of the server's
  rendering throughput and of the session's shared downlink across the
  admitted clients:

  - :class:`FairSharePolicy` (``"fair-share"``) — uniform division and
    the default: each of ``n`` equal clients holds a flat
    ``1 / (n * sharing_efficiency)`` of the server and of the link;
  - :class:`WeightedPolicy` (``"weighted"``) — share proportional to
    each client's *current* profile bandwidth (a well-provisioned client
    can consume frames faster, so the server renders for it first);
  - :class:`DeadlinePolicy` (``"deadline"``) — share proportional to
    deadline pressure: clients whose estimated frame time is closest to
    (or beyond) the 90 Hz budget get more of the server, so a client
    inside a trace-driven bandwidth drop is boosted while its neighbours
    coast on their headroom.

Allocation is computed *at admission time* from the clients' declared
network profiles (Firefly-style offline planning): the server samples
every client's profile on a fixed tick grid over the session horizon and
emits one share **schedule** per client — frozen ``(start_ms, share)``
segments that travel inside :class:`~repro.sim.runner.RunSpec` (so runs
stay deterministic, cacheable and bit-identical at any job count) and
are sampled by the frame loop as simulation time advances.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro import constants
from repro.codec.h264 import H264Model
from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig, RemoteServerConfig
from repro.gpu.remote_gpu import RemoteRenderer
from repro.network.channel import snr_efficiency
from repro.network.conditions import NetworkConditions
from repro.network.profile import NetworkProfile, ShareSchedule, as_profile
from repro.workloads.apps import get_app

__all__ = [
    "ClientDemand",
    "ShareSchedule",
    "SessionAllocation",
    "AdmissionDecision",
    "SchedulingPolicy",
    "FairSharePolicy",
    "WeightedPolicy",
    "DeadlinePolicy",
    "RenderServer",
    "POLICIES",
    "POLICY_NAMES",
    "OVERFLOW_MODES",
    "policy_by_name",
]

#: Admission actions a client of an oversubscribed session can receive.
ADMISSION_ACTIONS = ("admit", "degrade", "reject", "queue")

#: Overflow modes of a server (and of a render fleet).
OVERFLOW_MODES = ("degrade", "reject", "queue")

#: Floor on per-tick weights so one starving client cannot zero out the rest.
_MIN_WEIGHT = 1e-6


def _bytes_per_ms(throughput_mbps: float, snr_db: float) -> float:
    """Effective link rate in bytes/ms after SNR derating."""
    return (
        throughput_mbps * 1e6 / constants.BITS_PER_BYTE / 1000.0
        * snr_efficiency(snr_db)
    )


@dataclass(frozen=True)
class ClientDemand:
    """What one session client asks of the shared infrastructure.

    ``weight`` is the client's demand in client-equivalents (the
    admission currency); ``render_demand_ms`` and ``payload_bytes`` are
    per-frame estimates at full service used by the deadline policy's
    pressure model.  :meth:`estimate` derives all three from the app's
    Table 3 workload model, so admission planning needs no simulation.
    """

    app: str
    profile: NetworkProfile
    seed: int = 0
    weight: float = 1.0
    render_demand_ms: float = 0.0
    payload_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError(f"demand weight must be > 0, got {self.weight}")

    @classmethod
    def estimate(
        cls,
        app: str,
        profile: "NetworkProfile | NetworkConditions | str",
        seed: int = 0,
        weight: float = 1.0,
        server: RemoteServerConfig | None = None,
    ) -> "ClientDemand":
        """Estimate a client's demand from its title and link profile."""
        vr_app = get_app(app)
        renderer = RemoteRenderer(
            server if server is not None else RemoteServerConfig(), GPUConfig()
        )
        return cls(
            app=app,
            profile=as_profile(profile),
            seed=seed,
            weight=weight,
            render_demand_ms=renderer.render_time_ms(vr_app.full_workload()),
            payload_bytes=H264Model()
            .encode(vr_app.pixels_per_frame, vr_app.content_complexity)
            .payload_bytes,
        )

    def estimated_frame_ms(self, conditions: NetworkConditions) -> float:
        """Estimated per-frame time under the given instantaneous link."""
        transmit_ms = self.payload_bytes / _bytes_per_ms(
            conditions.throughput_mbps, conditions.snr_db
        )
        return (
            self.render_demand_ms + transmit_ms + 2.0 * conditions.propagation_ms
        )


@dataclass(frozen=True)
class SessionAllocation:
    """One admitted client's scheduled shares of server and downlink."""

    server: ShareSchedule
    downlink: ShareSchedule


@dataclass(frozen=True)
class AdmissionDecision:
    """The admission controller's verdict for one session client.

    ``service_level`` is the fraction of the client's full demand the
    server promises (1.0 for a plain admit; < 1 when the ``degrade``
    overflow mode shrinks everyone to fit capacity; 0 for rejected or
    queued clients, which receive no allocation this session).
    """

    client_index: int
    action: str
    service_level: float = 1.0

    def __post_init__(self) -> None:
        if self.action not in ADMISSION_ACTIONS:
            raise ConfigurationError(
                f"unknown admission action {self.action!r}; "
                f"known: {ADMISSION_ACTIONS}"
            )
        if not 0 <= self.service_level <= 1:
            raise ConfigurationError(
                f"service_level must be in [0, 1], got {self.service_level}"
            )

    @property
    def serviced(self) -> bool:
        """True when the client runs this session (admitted or degraded)."""
        return self.action in ("admit", "degrade")


class SchedulingPolicy(ABC):
    """Allocates instantaneous weights across a session's clients."""

    name: str = "abstract"

    @abstractmethod
    def weight_at(
        self, demand: ClientDemand, conditions: NetworkConditions, t_ms: float
    ) -> float:
        """This client's (unnormalised) allocation weight at ``t_ms``."""

    @property
    def uniform(self) -> bool:
        """True when weights never depend on client state (fair share)."""
        return False


class FairSharePolicy(SchedulingPolicy):
    """Uniform division: every client holds an equal share."""

    name = "fair-share"

    def weight_at(self, demand, conditions, t_ms):
        """Equal weight for every client."""
        return 1.0

    @property
    def uniform(self) -> bool:
        """Always True: fair share ignores client state."""
        return True


class WeightedPolicy(SchedulingPolicy):
    """Share proportional to the client's current profile bandwidth."""

    name = "weighted"

    def weight_at(self, demand, conditions, t_ms):
        """Weight proportional to the client's current throughput."""
        return max(conditions.throughput_mbps, _MIN_WEIGHT)


class DeadlinePolicy(SchedulingPolicy):
    """Share proportional to deadline pressure (est. frame time / budget).

    A client whose estimated frame time approaches or exceeds the 90 Hz
    frame budget — e.g. because its link just entered a trace-driven
    bandwidth drop — takes a larger share of the server and downlink.
    Clients with headroom (pressure below 1) weigh a flat 1.0 — EDF-style,
    a deadline that will be met earns no boost — which keeps the session
    close to fair sharing outside contention windows and so keeps the
    session's mean throughput roughly conserved.
    """

    name = "deadline"

    #: Pressure exponent; > 1 sharpens the boost for struggling clients
    #: at a growing cost to session-mean throughput (1.0 keeps the mean
    #: within noise of fair share while still lifting the tail).
    gamma: float = 1.0

    def weight_at(self, demand, conditions, t_ms):
        """Weight grows with deadline pressure (frame time vs budget)."""
        pressure = demand.estimated_frame_ms(conditions) / constants.FRAME_BUDGET_MS
        return max(pressure, 1.0) ** self.gamma


#: Registry of scheduling policies by CLI name.
POLICIES: dict[str, SchedulingPolicy] = {
    policy.name: policy
    for policy in (FairSharePolicy(), WeightedPolicy(), DeadlinePolicy())
}

#: Policy names, fair-share (the default) first.
POLICY_NAMES: tuple[str, ...] = tuple(POLICIES)


def policy_by_name(name: str) -> SchedulingPolicy:
    """Resolve a scheduling policy by its registry name."""
    key = name.strip().lower()
    if key not in POLICIES:
        raise ConfigurationError(
            f"unknown scheduling policy {name!r}; known: {POLICY_NAMES}"
        )
    return POLICIES[key]


@dataclass(frozen=True)
class RenderServer:
    """The shared rendering server: capacity, admission, scheduling.

    Attributes
    ----------
    config:
        The MCM GPU array being shared (Sec. 5 server model).
    capacity_clients:
        Sustainable demand in client-equivalents; ``None`` derives it
        from the GPU count (each MCM GPU sustains ~1 full-demand client).
        Fractional capacities are meaningful: ``capacity_clients=0.5``
        can only serve a lone client at half service.
    overflow:
        What happens to demand beyond capacity: ``"degrade"`` admits
        everyone at proportionally reduced service ``capacity / load``
        (the default: everyone keeps rendering, more slowly),
        ``"reject"`` turns away the clients that no longer fit (greedy in
        arrival order), ``"queue"`` holds them until capacity frees.
    tick_ms:
        Granularity of the allocation schedule (profile sampling grid).
    """

    config: RemoteServerConfig = field(default_factory=RemoteServerConfig)
    capacity_clients: float | None = None
    overflow: str = "degrade"
    tick_ms: float = 250.0

    def __post_init__(self) -> None:
        if self.capacity_clients is not None and self.capacity_clients <= 0:
            raise ConfigurationError(
                f"capacity_clients must be > 0, got {self.capacity_clients}"
            )
        if self.overflow not in OVERFLOW_MODES:
            raise ConfigurationError(
                f"unknown overflow mode {self.overflow!r}; known: {OVERFLOW_MODES}"
            )
        if self.tick_ms <= 0:
            raise ConfigurationError(f"tick_ms must be > 0, got {self.tick_ms}")

    @property
    def capacity(self) -> float:
        """Capacity in client-equivalents."""
        if self.capacity_clients is not None:
            return self.capacity_clients
        return float(self.config.num_gpus)

    def fits(self, weight: float, load: float = 0.0) -> bool:
        """True when a client of ``weight`` fits beside ``load`` already placed.

        The greedy capacity check of the epoch walker's placement
        (:func:`repro.sim.fleet.plan_fleet_timeline`).
        """
        return load + weight <= self.capacity

    # -- scheduling ------------------------------------------------------------

    def allocate(
        self,
        demands: tuple[ClientDemand, ...],
        policy: "SchedulingPolicy | str",
        horizon_ms: float,
        sharing_efficiency: float = 0.9,
        service_levels: tuple[float, ...] | None = None,
        start_ms: float = 0.0,
    ) -> tuple[SessionAllocation, ...]:
        """Plan per-client share schedules over one planning window.

        Samples every client's profile on the tick grid and normalises
        the policy's weights so that equal weights give the uniform share
        ``1 / (n * sharing_efficiency)`` exactly.  The
        server schedule additionally scales by each client's admission
        ``service_level``; the downlink schedule does not (link capacity
        is not the server's to withhold).  Shares cap at 1.0 — a lone
        boosted client can at most use the whole resource.

        ``start_ms`` offsets the window on the session clock: an
        event-driven session re-plans at every epoch boundary, so epoch
        allocations sample each profile at ``start_ms + tick`` (the
        conditions actually in force then) while the emitted segments
        stay window-local — ``horizon_ms`` is the window *duration* and
        the first segment starts at 0, so a session without events makes
        one whole-session call at ``start_ms=0``.
        """
        chosen = policy_by_name(policy) if isinstance(policy, str) else policy
        if not demands:
            return ()
        if horizon_ms <= 0:
            raise ConfigurationError(f"horizon_ms must be > 0, got {horizon_ms}")
        if start_ms < 0:
            raise ConfigurationError(f"start_ms must be >= 0, got {start_ms}")
        if not 0 < sharing_efficiency <= 1:
            raise ConfigurationError("sharing_efficiency must be in (0, 1]")
        services = (
            service_levels
            if service_levels is not None
            else (1.0,) * len(demands)
        )
        if len(services) != len(demands):
            raise ConfigurationError(
                f"{len(services)} service levels for {len(demands)} demands"
            )
        n = len(demands)
        budget = 1.0 / sharing_efficiency  # sum of the uniform fair shares
        samplers = [d.profile.sampler(d.seed) for d in demands]
        ticks = [0.0]
        while ticks[-1] + self.tick_ms < horizon_ms:
            ticks.append(ticks[-1] + self.tick_ms)
        server_segments: list[list[tuple[float, float]]] = [[] for _ in demands]
        downlink_segments: list[list[tuple[float, float]]] = [[] for _ in demands]
        for t in ticks:
            conditions = [
                sampler.conditions_at(start_ms + t) for sampler in samplers
            ]
            weights = [
                max(chosen.weight_at(d, c, t), _MIN_WEIGHT)
                for d, c in zip(demands, conditions)
            ]
            total = sum(weights)
            for i, weight in enumerate(weights):
                fraction = weight / total
                downlink = min(fraction * budget, 1.0)
                server = min(downlink * services[i], 1.0)
                _append_segment(server_segments[i], t, server)
                _append_segment(downlink_segments[i], t, downlink)
        return tuple(
            SessionAllocation(
                server=ShareSchedule(tuple(server_segments[i])),
                downlink=ShareSchedule(tuple(downlink_segments[i])),
            )
            for i in range(n)
        )


def _append_segment(
    segments: list[tuple[float, float]], start_ms: float, share: float
) -> None:
    """Append a segment, merging runs of identical shares."""
    if segments and segments[-1][1] == share:
        return
    segments.append((start_ms, share))
