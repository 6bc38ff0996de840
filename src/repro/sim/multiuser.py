"""Multi-user collaborative VR scenarios on the batch execution layer.

The paper's framing is *planet-scale* mobile VR ("users around the world,
regardless of their hardware and network conditions") and it compares
against multi-user systems (Firefly, Coterie).  This module describes the
natural next step — **several Q-VR clients sharing one rendering server
and one access link** — as plain :class:`~repro.sim.runner.RunSpec`
batches: a scenario expands to one spec per client (carrying the
``shared_clients`` degradation and a distinct per-client seed) and runs
through the same :class:`~repro.sim.runner.BatchEngine` as every other
experiment, so multi-user evaluation parallelises and memoizes for free.

Sessions are **heterogeneous**: each :class:`ClientSpec` names its own
``(app, platform, profile)`` tuple — one participant on a flagship SoC
over Wi-Fi, another on a throttled GPU over a 4G link that drops mid-run
— matching how surveys of synchronous VR collaboration characterise real
sessions.  The uniform all-same-title scenario remains the
:meth:`MultiUserScenario.uniform` special case.

Model: each client runs the full Q-VR control loop independently; the
shared infrastructure scales each client's effective resources —

* the server's rendering throughput divides across concurrently active
  clients (the MCM GPUs are time-shared);
* the shared downlink divides its throughput across clients;

so every client's LIWC observes a *degraded environment* (slower ACK
throughput, longer remote latencies) and re-balances by growing its local
fovea.  The testable prediction — more co-located users, larger average
eccentricity and lower per-user FPS, until the local GPUs saturate — is
the behaviour a planet-scale deployment would exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.network.conditions import NetworkConditions
from repro.network.profile import NetworkProfile, as_profile
from repro.sim.metrics import SimulationResult
from repro.sim.runner import BatchEngine, RunSpec, default_engine
from repro.sim.server import AdmissionDecision, POLICY_NAMES, RenderServer
from repro.sim.systems import PlatformConfig

__all__ = [
    "ClientSpec",
    "MultiUserScenario",
    "MultiUserResult",
    "SessionPlan",
    "simulate_shared_infrastructure",
]


@dataclass(frozen=True)
class ClientSpec:
    """One participant of a shared session: app, hardware, link dynamics.

    Attributes
    ----------
    app:
        The title this client runs.
    platform:
        The client's own platform; ``None`` inherits the scenario default.
    profile:
        Link conditions/profile override (a
        :class:`~repro.network.profile.NetworkProfile`, static
        conditions, or a registry name); ``None`` keeps the platform's
        network.  A client whose resolved network differs from the
        scenario default is on a *private* link: it still shares the
        rendering server, but its downlink is not divided across the
        session's clients.
    system:
        Per-client system design override; ``None`` uses the scenario
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


@dataclass(frozen=True)
class MultiUserScenario:
    """A shared-infrastructure deployment of heterogeneous clients.

    Construct either from ``clients`` (per-client
    :class:`ClientSpec` tuples — bare app-name strings are promoted) or
    from the legacy uniform surface ``apps`` (one title per client, all
    on the scenario platform).  Exactly one of the two spellings must
    describe the session; both fields are populated coherently after
    construction.

    Attributes
    ----------
    apps:
        One title per client (derived from ``clients`` when those are
        given explicitly).
    platform:
        The default single-user platform being shared; clients may
        override it per :class:`ClientSpec`.
    sharing_efficiency:
        Fraction of ideal 1/N scaling the infrastructure achieves
        (statistical multiplexing recovers some capacity because clients'
        transfers interleave; 1.0 = perfect interleaving, values < 1
        model scheduling losses).
    clients:
        The full per-client description of the session.
    policy:
        Server scheduling policy (:data:`~repro.sim.server.POLICY_NAMES`).
        The default ``"fair-share"`` reproduces the uniform division of
        earlier releases bit-identically (same specs, same cache keys);
        ``"weighted"`` and ``"deadline"`` plan explicit per-client share
        schedules at admission time.
    server:
        The rendering server doing admission and scheduling; ``None``
        keeps the legacy unlimited-capacity behaviour under fair-share
        and a default :class:`~repro.sim.server.RenderServer` otherwise.
    """

    apps: tuple[str, ...] = ()
    platform: PlatformConfig | None = None
    sharing_efficiency: float = 0.9
    clients: tuple[ClientSpec, ...] = ()
    policy: str = "fair-share"
    server: RenderServer | None = None

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown scheduling policy {self.policy!r}; known: {POLICY_NAMES}"
            )
        if self.platform is None:
            object.__setattr__(self, "platform", PlatformConfig())
        if self.clients:
            promoted = tuple(
                client if isinstance(client, ClientSpec) else ClientSpec(app=client)
                for client in self.clients
            )
            object.__setattr__(self, "clients", promoted)
            derived = tuple(client.app for client in promoted)
            if self.apps and tuple(self.apps) != derived:
                raise ConfigurationError(
                    f"apps {self.apps!r} disagree with clients {derived!r}; "
                    "provide one of the two"
                )
            object.__setattr__(self, "apps", derived)
        elif self.apps:
            object.__setattr__(self, "apps", tuple(self.apps))
            object.__setattr__(
                self, "clients", tuple(ClientSpec(app=app) for app in self.apps)
            )
        else:
            raise ConfigurationError(
                "scenario needs n_users >= 1 (one app or ClientSpec per client)"
            )
        if not 0 < self.sharing_efficiency <= 1:
            raise ConfigurationError("sharing_efficiency must be in (0, 1]")

    @classmethod
    def uniform(
        cls,
        app: str,
        n_users: int,
        platform: PlatformConfig | None = None,
        sharing_efficiency: float = 0.9,
        policy: str = "fair-share",
        server: RenderServer | None = None,
    ) -> "MultiUserScenario":
        """A scenario of ``n_users`` clients all running the same title."""
        if n_users < 1:
            raise ConfigurationError(f"n_users must be >= 1, got {n_users}")
        return cls(
            apps=(app,) * n_users,
            platform=platform,
            sharing_efficiency=sharing_efficiency,
            policy=policy,
            server=server,
        )

    @classmethod
    def heterogeneous(
        cls,
        clients: tuple[ClientSpec | str, ...],
        platform: PlatformConfig | None = None,
        sharing_efficiency: float = 0.9,
        policy: str = "fair-share",
        server: RenderServer | None = None,
    ) -> "MultiUserScenario":
        """A scenario of per-client ``(app, platform, profile)`` tuples."""
        return cls(
            platform=platform,
            sharing_efficiency=sharing_efficiency,
            clients=tuple(clients),
            policy=policy,
            server=server,
        )

    @property
    def n_clients(self) -> int:
        """Number of co-located clients."""
        return len(self.clients)

    def to_specs(
        self,
        system: str = "qvr",
        n_frames: int = 200,
        seed: int = 0,
        warmup_frames: int | None = None,
    ) -> tuple[RunSpec, ...]:
        """One frozen spec per *serviced* client, ready for any engine.

        Clients receive distinct seeds (stride
        :data:`~repro.sim.runner.CLIENT_SEED_STRIDE`) so their motion and
        scene dynamics are independent; each spec carries the client's
        resolved platform/profile and the scenario's sharing parameters,
        so the engine derives the degraded per-client environment.

        Under the default fair-share policy (with no explicit server)
        every client is serviced and the expansion is byte-identical to
        earlier releases; otherwise the admission plan may reject or
        queue clients, whose specs are simply absent (see :meth:`plan`
        for the full per-client verdicts).
        """
        return self.plan(
            system=system, n_frames=n_frames, seed=seed, warmup_frames=warmup_frames
        ).specs

    def as_session(self):
        """This scenario as an event-free session.

        The bridge to the event-driven surface: add events to the
        returned :class:`~repro.sim.session.Session` and the same roster
        churns; add none and it plans bit-identically to :meth:`plan`.
        """
        from repro.sim.session import Session

        return Session(
            clients=self.clients,
            platform=self.platform,
            sharing_efficiency=self.sharing_efficiency,
            policy=self.policy,
            server=self.server,
        )

    def plan(
        self,
        system: str = "qvr",
        n_frames: int = 200,
        seed: int = 0,
        warmup_frames: int | None = None,
    ) -> "SessionPlan":
        """Admit, schedule and expand the session into frozen run specs.

        A thin compatibility shim over a single-epoch event-free
        :class:`~repro.sim.session.Session` (see :meth:`as_session`).
        The legacy fair-share scenario (no explicit server) admits
        everyone and emits exactly the specs of earlier releases — same
        cache keys, bit-identical results; any other configuration plans
        on the session's one-server fleet (demand estimation, admission,
        policy scheduling), whose share schedules ride inside the specs.
        A warm-up that leaves no steady-state frame clamps to zero.
        """
        return self.as_session().timeline(
            system=system,
            n_frames=n_frames,
            seed=seed,
            warmup_frames=warmup_frames,
        ).plan()


@dataclass(frozen=True)
class SessionPlan:
    """The admission controller's output for one session.

    ``decisions`` covers every client in session order; ``specs`` holds
    one frozen run spec per *serviced* client (admitted or degraded), in
    the same order — rejected and queued clients run nothing.
    """

    decisions: tuple[AdmissionDecision, ...]
    specs: tuple[RunSpec, ...]

    @property
    def serviced_indices(self) -> tuple[int, ...]:
        """Session indices of the clients that actually run."""
        return tuple(d.client_index for d in self.decisions if d.serviced)


@dataclass(frozen=True)
class MultiUserResult:
    """Per-client results plus aggregate statistics.

    ``per_client`` aligns with the session's *serviced* clients (see
    ``decisions`` when an admission controller turned clients away; the
    default fair-share session services everyone).
    """

    per_client: tuple[SimulationResult, ...]
    decisions: tuple[AdmissionDecision, ...] | None = None

    @property
    def mean_fps(self) -> float:
        """Average per-client frame rate."""
        if not self.per_client:
            return float("nan")
        return float(np.mean([r.measured_fps for r in self.per_client]))

    @property
    def mean_e1_deg(self) -> float:
        """Average steady-state eccentricity across clients."""
        if not self.per_client:
            return float("nan")
        return float(np.mean([r.mean_e1_deg for r in self.per_client]))

    @property
    def mean_latency_ms(self) -> float:
        """Average end-to-end latency across clients."""
        if not self.per_client:
            return float("nan")
        return float(np.mean([r.mean_latency_ms for r in self.per_client]))

    @property
    def clients_meeting_fps(self) -> int:
        """How many clients hold the 90 Hz requirement."""
        return sum(1 for r in self.per_client if r.meets_target_fps)


def simulate_shared_infrastructure(
    scenario: MultiUserScenario,
    n_frames: int = 200,
    seed: int = 0,
    system: str = "qvr",
    engine: BatchEngine | None = None,
) -> MultiUserResult:
    """Simulate every client of a shared-infrastructure scenario.

    The scenario expands to per-client :class:`RunSpec` values and runs
    through the batch engine (the caller's, or the default serial one),
    so a parallel or caching engine accelerates multi-user studies the
    same way it accelerates figure sweeps.  Clients the admission
    controller rejected or queued contribute no result; their verdicts
    are reported on the returned :attr:`MultiUserResult.decisions`.
    """
    plan = scenario.plan(system=system, n_frames=n_frames, seed=seed)
    chosen = engine if engine is not None else default_engine()
    batch = chosen.run_specs(plan.specs)
    return MultiUserResult(
        per_client=tuple(batch[spec] for spec in plan.specs),
        decisions=plan.decisions,
    )
