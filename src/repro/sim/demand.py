"""Population-scale demand: sample a city of sessions, stream it end to end.

The paper frames Q-VR as infrastructure for "future mobile collaborative
VR" serving users around the world; the surveys of synchronous VR/AR
collaboration in PAPERS.md describe what that traffic looks like — many
concurrent multi-party sessions, bursty arrivals, heterogeneous devices
and links.  Every session in this repo used to be a hand-written event
list; this module is the generator that writes them at city scale.

A :class:`DemandScenario` is a seeded statistical description of a
population:

* **arrivals** — a homogeneous (:class:`PoissonArrivals`) or diurnal
  (:class:`DiurnalArrivals`) Poisson process, optionally spiked by
  :class:`FlashCrowd` windows that multiply the instantaneous rate
  (sampled exactly via Lewis-Shedler thinning);
* **shape** — per-session party size, duration in frames, and a client
  mix of weighted :class:`ClientTemplate` app/weight entries;
* **links** — a share-weighted profile mix assigning each client a
  network profile, including trace profiles replayed from the checked-in
  4G/5G measurement corpus under ``data/``;
* **churn** — a :class:`ChurnModel` of per-client late-join, early-leave
  and mid-session link-switch probabilities, expanded into valid
  :class:`~repro.sim.session.Join` / :class:`~repro.sim.session.Leave` /
  :class:`~repro.sim.session.ProfileSwitch` events strictly inside each
  session's duration.

:meth:`DemandScenario.expand` turns the scenario plus one integer seed
into a deterministic tuple of :class:`PlannedSession`s — full
event-driven :class:`~repro.sim.session.Session`s placed on the
scenario's :class:`~repro.sim.fleet.RenderFleet` (each session plans
against a dedicated fleet of the declared shape; "fleet-wide" metrics
aggregate across sessions).  All randomness flows from one seeded
``numpy`` PCG64 generator, so the same seed always reproduces the same
city, bit for bit.

:func:`run_population` folds the expansion through the existing sharded
batch path in one session-major pass: every session re-plans under each
policy in turn via :meth:`~repro.sim.session.Session.with_policy`, and
the frozen specs of all policies stream through a single
:meth:`~repro.sim.runner.BatchEngine.stream_specs` call (one result
stream for the whole run).  The engine runs them sorted by the kernels'
memo group, so a client's specs under every policy run back to back and
share its workload stream and gaze trace.  Each
``(spec, result)`` pair is folded into its policy's order-independent
streaming aggregates (exact-sum :class:`~repro.sim.metrics.StreamSummary`)
and dropped, so no full result dict ever exists; the planned sessions
and their specs are still all held before execution starts.  The headline metric is fleet-wide SLO
attainment: the fraction of measurable client-windows whose steady-state
p99 FPS meets the scenario's floor, reported per policy.  Because every
aggregate is order-independent (exact sums, integer sketch counters,
integer SLO tallies), the report is bit-identical at any shard count,
worker count, or completion order.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.errors import ConfigurationError
from repro.network.profile import NetworkProfile, as_profile, profile_by_name
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sim.fleet import RenderFleet, fleet_from_payload
from repro.sim.metrics import StreamSummary
from repro.sim.runner import BatchEngine, RunSpec
from repro.sim.server import POLICY_NAMES
from repro.sim.session import ClientSpec, Join, Leave, ProfileSwitch, Session, SessionEvent
from repro.workloads.apps import APPS

__all__ = [
    "SESSION_SEED_STRIDE",
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalArrivals",
    "FlashCrowd",
    "ClientTemplate",
    "ChurnModel",
    "DemandScenario",
    "PlannedSession",
    "run_population",
]

#: Seed stride between consecutive sampled sessions.  Within a session
#: the planner strides client seeds by
#: :data:`~repro.sim.runner.CLIENT_SEED_STRIDE` (97), so any stride
#: comfortably above ``97 * max_party_size`` keeps every client-session
#: on a distinct seed; a prime keeps the lattices from aliasing.
SESSION_SEED_STRIDE = 10_007

#: Fraction bounds keeping every sampled churn event strictly inside its
#: session: joins land in the first half, leaves in the last, switches
#: strictly between a client's join and leave.
_JOIN_WINDOW = (0.05, 0.45)
_LEAVE_WINDOW = (0.55, 0.95)
_SWITCH_MARGIN = 0.02


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrivalProcess:
    """Base class of session arrival processes: a rate curve over time.

    Rates are configured in sessions per minute and evaluated in
    sessions per millisecond (the simulation clock).  Subclasses define
    the shape; sampling happens once, in
    :meth:`DemandScenario.expand`, via exact Lewis-Shedler thinning
    against :meth:`peak_rate`.
    """

    rate_per_min: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.rate_per_min) or self.rate_per_min <= 0:
            raise ConfigurationError(
                f"arrival rate must be finite and > 0/min, got {self.rate_per_min}"
            )

    @property
    def _rate_per_ms(self) -> float:
        return self.rate_per_min / 60_000.0

    def rate_at(self, t_ms: float) -> float:
        """Instantaneous arrival intensity at ``t_ms``, sessions/ms."""
        raise NotImplementedError

    def peak_rate(self) -> float:
        """A tight upper bound of :meth:`rate_at` (the thinning envelope)."""
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals: one constant rate."""

    def rate_at(self, t_ms: float) -> float:
        """Constant intensity, independent of the clock."""
        return self._rate_per_ms

    def peak_rate(self) -> float:
        """The constant rate is its own envelope."""
        return self._rate_per_ms


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Diurnal (sinusoidally modulated) Poisson arrivals.

    ``rate(t) = mean * (1 + amplitude * cos(2*pi * (t - peak_ms) / period_ms))``
    — a smooth day curve peaking at ``peak_ms`` with troughs at
    ``mean * (1 - amplitude)``.  ``rate_per_min`` is the *mean* rate, so
    the expected session count over one full period matches the
    homogeneous process at the same rate.
    """

    period_ms: float = 86_400_000.0
    amplitude: float = 0.8
    peak_ms: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not np.isfinite(self.period_ms) or self.period_ms <= 0:
            raise ConfigurationError(
                f"diurnal period must be finite and > 0 ms, got {self.period_ms}"
            )
        if not 0 <= self.amplitude < 1:
            raise ConfigurationError(
                f"diurnal amplitude must be in [0, 1), got {self.amplitude}"
            )

    def rate_at(self, t_ms: float) -> float:
        """The day-curve intensity at ``t_ms``."""
        phase = 2.0 * math.pi * (t_ms - self.peak_ms) / self.period_ms
        return self._rate_per_ms * (1.0 + self.amplitude * math.cos(phase))

    def peak_rate(self) -> float:
        """The crest of the day curve."""
        return self._rate_per_ms * (1.0 + self.amplitude)


@dataclass(frozen=True)
class FlashCrowd:
    """A burst window multiplying the arrival rate (a launch, an event).

    While ``start_ms <= t < start_ms + duration_ms`` the instantaneous
    arrival intensity is multiplied by ``multiplier``; overlapping
    crowds compound multiplicatively.
    """

    start_ms: float
    duration_ms: float
    multiplier: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.start_ms) or self.start_ms < 0:
            raise ConfigurationError(
                f"flash-crowd start must be finite and >= 0 ms, got {self.start_ms}"
            )
        if not np.isfinite(self.duration_ms) or self.duration_ms <= 0:
            raise ConfigurationError(
                f"flash-crowd duration must be finite and > 0 ms, got "
                f"{self.duration_ms}"
            )
        if not np.isfinite(self.multiplier) or self.multiplier <= 0:
            raise ConfigurationError(
                f"flash-crowd multiplier must be finite and > 0, got "
                f"{self.multiplier}"
            )

    def active_at(self, t_ms: float) -> bool:
        """True while the crowd is in effect at ``t_ms``."""
        return self.start_ms <= t_ms < self.start_ms + self.duration_ms


# ---------------------------------------------------------------------------
# Mixes and churn
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientTemplate:
    """One entry of the client mix: an app plus its sampling share.

    ``share`` is the relative probability of drawing this template for a
    party member; ``weight`` is the admission currency the drawn client
    carries (:attr:`~repro.sim.session.ClientSpec.weight`, what the
    weighted scheduling policy divides by).
    """

    app: str
    share: float = 1.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.app not in APPS:
            raise ConfigurationError(
                f"unknown app {self.app!r} in client mix; known: {sorted(APPS)}"
            )
        if not np.isfinite(self.share) or self.share <= 0:
            raise ConfigurationError(
                f"client-template share must be finite and > 0, got {self.share}"
            )
        if not np.isfinite(self.weight) or self.weight <= 0:
            raise ConfigurationError(
                f"client-template weight must be finite and > 0, got {self.weight}"
            )


@dataclass(frozen=True)
class ChurnModel:
    """Per-client churn probabilities expanded into session events.

    ``late_join`` is the probability a party member (beyond the first,
    which anchors the session) arrives mid-session instead of at t = 0;
    ``leave`` the probability a member departs early; ``switch`` the
    probability a member roams onto another sampled link profile
    mid-session.  Event instants are sampled as fractions of the session
    duration inside disjoint windows (join before switch before leave),
    so every expanded event timeline is valid by construction.
    """

    late_join: float = 0.0
    leave: float = 0.0
    switch: float = 0.0

    def __post_init__(self) -> None:
        for name in ("late_join", "leave", "switch"):
            value = getattr(self, name)
            if not np.isfinite(value) or not 0 <= value <= 1:
                raise ConfigurationError(
                    f"churn probability {name} must be in [0, 1], got {value}"
                )


@dataclass(frozen=True)
class PlannedSession:
    """One sampled session of the expansion, ready to plan and execute."""

    index: int
    arrival_ms: float
    n_frames: int
    seed: int
    session: Session


# ---------------------------------------------------------------------------
# The scenario
# ---------------------------------------------------------------------------


def _normalized_shares(entries, what: str):
    """Validate a ``(value, share)`` mix and return it as a tuple."""
    entries = tuple(entries)
    if not entries:
        raise ConfigurationError(f"{what} mix must not be empty")
    for _, share in entries:
        if not np.isfinite(share) or share <= 0:
            raise ConfigurationError(
                f"{what} shares must be finite and > 0, got {share}"
            )
    return entries


def _anchored_profile(name: str, base_dir: str) -> "str | NetworkProfile":
    """A trace-CSV name loaded against ``base_dir``; other names unchanged."""
    if not name.strip().lower().endswith(".csv"):
        return name
    return profile_by_name(name, base_dir)


def _pick(rng, entries):
    """Draw one ``value`` from ``(value, share)`` pairs (inverse CDF).

    The left-to-right sums below are deterministic (``entries`` is an
    ordered tuple) and frozen: rerouting them through ``math.fsum`` /
    ``ExactMoments`` would move the CDF thresholds by ulps and redraw
    every published city.
    """
    # repro-lint: disable=DET005 -- deterministic tuple order; frozen sampling contract
    total = sum(share for _, share in entries)
    x = rng.random() * total
    acc = 0.0
    for value, share in entries:
        acc += share  # repro-lint: disable=DET005 -- inverse-CDF walk over an ordered tuple
        if x < acc:
            return value
    return entries[-1][0]


@dataclass(frozen=True)
class DemandScenario:
    """A seeded statistical description of a city's worth of sessions.

    Attributes
    ----------
    name:
        Scenario label, carried into reports.
    horizon_ms:
        The arrival window: sessions arrive in ``[0, horizon_ms)``.
    arrivals:
        The :class:`ArrivalProcess` (homogeneous or diurnal Poisson).
    flash_crowds:
        Burst windows multiplying the arrival rate.
    party_sizes:
        ``(size, share)`` pairs — the party-size distribution.
    frames_min, frames_max:
        Inclusive bounds of the per-session duration, in frames
        (sampled uniformly; the session duration in milliseconds is
        ``n_frames *`` the 90 Hz frame budget).
    clients:
        The weighted :class:`ClientTemplate` app mix.
    profiles:
        ``(profile, share)`` pairs assigning each sampled client a
        network profile; ``None`` means the platform's default link.
        Resolved once at construction (names, registry entries, or
        trace CSV paths via
        :func:`~repro.network.profile.profile_by_name`).
    churn:
        The :class:`ChurnModel` expanded into Join/Leave/ProfileSwitch
        events.
    fleet:
        The :class:`~repro.sim.fleet.RenderFleet` shape every session
        plans against.
    policies:
        Scheduling policies to evaluate; each gets an independent
        planning + execution pass over the same expanded city.
    system:
        System design executed per client (default the full Q-VR).
    sharing_efficiency:
        Infrastructure scaling efficiency passed to each session.
    slo_p99_fps_floor:
        The SLO: a client-window attains it when its steady-state p99
        FPS is at least this floor.
    """

    name: str
    horizon_ms: float
    arrivals: ArrivalProcess
    fleet: RenderFleet
    flash_crowds: tuple[FlashCrowd, ...] = ()
    party_sizes: tuple[tuple[int, float], ...] = ((2, 1.0),)
    frames_min: int = 8
    frames_max: int = 20
    clients: tuple[ClientTemplate, ...] = (ClientTemplate(app="GRID"),)
    profiles: tuple[tuple[NetworkProfile | None, float], ...] = ((None, 1.0),)
    churn: ChurnModel = ChurnModel()
    policies: tuple[str, ...] = ("fair-share",)
    system: str = "qvr"
    sharing_efficiency: float = 0.9
    slo_p99_fps_floor: float = 60.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario needs a name")
        if not np.isfinite(self.horizon_ms) or self.horizon_ms <= 0:
            raise ConfigurationError(
                f"horizon must be finite and > 0 ms, got {self.horizon_ms}"
            )
        object.__setattr__(
            self, "flash_crowds", tuple(self.flash_crowds)
        )
        sizes = _normalized_shares(self.party_sizes, "party-size")
        for size, _ in sizes:
            if not isinstance(size, int) or size < 1:
                raise ConfigurationError(
                    f"party sizes must be integers >= 1, got {size!r}"
                )
        object.__setattr__(self, "party_sizes", sizes)
        if not 1 <= self.frames_min <= self.frames_max:
            raise ConfigurationError(
                f"need 1 <= frames_min <= frames_max, got "
                f"[{self.frames_min}, {self.frames_max}]"
            )
        object.__setattr__(self, "clients", tuple(self.clients))
        if not self.clients:
            raise ConfigurationError("scenario needs at least one client template")
        object.__setattr__(
            self,
            "profiles",
            _normalized_shares(self.profiles, "profile"),
        )
        object.__setattr__(self, "policies", tuple(self.policies))
        if not self.policies:
            raise ConfigurationError("scenario needs at least one policy")
        if len(set(self.policies)) != len(self.policies):
            raise ConfigurationError(
                f"duplicate policies in scenario: {self.policies}"
            )
        for policy in self.policies:
            if policy not in POLICY_NAMES:
                raise ConfigurationError(
                    f"unknown scheduling policy {policy!r}; known: {POLICY_NAMES}"
                )
        if not 0 < self.sharing_efficiency <= 1:
            raise ConfigurationError("sharing_efficiency must be in (0, 1]")
        if not np.isfinite(self.slo_p99_fps_floor) or self.slo_p99_fps_floor <= 0:
            raise ConfigurationError(
                f"SLO p99-FPS floor must be finite and > 0, got "
                f"{self.slo_p99_fps_floor}"
            )
        if self.churn.switch > 0 and not self._switch_targets():
            raise ConfigurationError(
                "churn.switch > 0 needs at least one non-default profile "
                "in the mix to switch onto"
            )

    def _switch_targets(self):
        return tuple(
            (profile, share)
            for profile, share in self.profiles
            if profile is not None
        )

    # -- construction from JSON ------------------------------------------------

    @classmethod
    def from_payload(cls, payload: object, source: str = "scenario") -> "DemandScenario":
        """Build a scenario from a decoded JSON description.

        The schema is documented in ``docs/demand_scenarios.md``; see
        ``examples/population.json`` for a complete example.  ``source``
        names the payload's origin in error messages.  A ``"profiles"``
        key may also be an already-resolved
        :class:`~repro.network.profile.NetworkProfile` (how
        :meth:`from_json` anchors relative trace paths).
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(f"{source} must be a JSON object")
        known = {
            "name", "horizon_ms", "arrivals", "flash_crowds", "party_sizes",
            "duration_frames", "clients", "profiles", "churn", "fleet",
            "policies", "system", "sharing_efficiency", "slo",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown scenario keys {unknown} in {source}; "
                f"known: {sorted(known)}"
            )
        for key in ("name", "horizon_ms", "arrivals", "clients", "fleet"):
            if key not in payload:
                raise ConfigurationError(f'{source} is missing "{key}"')

        arrivals = cls._arrivals_from(payload["arrivals"], source)
        crowds = tuple(
            FlashCrowd(
                start_ms=float(entry.get("start_ms", 0.0)),
                duration_ms=float(entry.get("duration_ms", 0.0)),
                multiplier=float(entry.get("multiplier", 1.0)),
            )
            for entry in payload.get("flash_crowds", ())
        )
        party = payload.get("party_sizes", {"2": 1.0})
        if not isinstance(party, dict) or not party:
            raise ConfigurationError(
                f'"party_sizes" in {source} must be a non-empty '
                "{size: share} object"
            )
        party_sizes = tuple(
            (int(size), float(share)) for size, share in party.items()
        )
        duration = payload.get("duration_frames", {})
        if not isinstance(duration, dict):
            raise ConfigurationError(
                f'"duration_frames" in {source} must be a {{min, max}} object'
            )
        clients = tuple(
            ClientTemplate(
                app=str(entry["app"]),
                share=float(entry.get("share", 1.0)),
                weight=float(entry.get("weight", 1.0)),
            )
            for entry in payload["clients"]
        )
        profile_mix = payload.get("profiles", {"default": 1.0})
        if not isinstance(profile_mix, dict) or not profile_mix:
            raise ConfigurationError(
                f'"profiles" in {source} must be a non-empty '
                "{name: share} object"
            )
        profiles = tuple(
            (
                None if name == "default" else as_profile(name),
                float(share),
            )
            for name, share in profile_mix.items()
        )
        churn_payload = payload.get("churn", {})
        if not isinstance(churn_payload, dict):
            raise ConfigurationError(f'"churn" in {source} must be an object')
        churn = ChurnModel(
            late_join=float(churn_payload.get("late_join", 0.0)),
            leave=float(churn_payload.get("leave", 0.0)),
            switch=float(churn_payload.get("switch", 0.0)),
        )
        slo = payload.get("slo", {})
        if not isinstance(slo, dict):
            raise ConfigurationError(f'"slo" in {source} must be an object')
        return cls(
            name=str(payload["name"]),
            horizon_ms=float(payload["horizon_ms"]),
            arrivals=arrivals,
            flash_crowds=crowds,
            party_sizes=party_sizes,
            frames_min=int(duration.get("min", 8)),
            frames_max=int(duration.get("max", 20)),
            clients=clients,
            profiles=profiles,
            churn=churn,
            fleet=fleet_from_payload(payload["fleet"], source=f'"fleet" in {source}'),
            policies=tuple(str(p) for p in payload.get("policies", ("fair-share",))),
            system=str(payload.get("system", "qvr")),
            sharing_efficiency=float(payload.get("sharing_efficiency", 0.9)),
            slo_p99_fps_floor=float(slo.get("p99_fps_floor", 60.0)),
        )

    @staticmethod
    def _arrivals_from(payload: object, source: str) -> ArrivalProcess:
        """Decode the ``"arrivals"`` section into an :class:`ArrivalProcess`."""
        if not isinstance(payload, dict) or "rate_per_min" not in payload:
            raise ConfigurationError(
                f'"arrivals" in {source} must be an object with "rate_per_min"'
            )
        process = str(payload.get("process", "poisson"))
        rate = float(payload["rate_per_min"])
        if process == "poisson":
            extra = sorted(set(payload) - {"process", "rate_per_min"})
            if extra:
                raise ConfigurationError(
                    f"unknown poisson arrival keys {extra} in {source}"
                )
            return PoissonArrivals(rate_per_min=rate)
        if process == "diurnal":
            extra = sorted(
                set(payload)
                - {"process", "rate_per_min", "period_ms", "amplitude", "peak_ms"}
            )
            if extra:
                raise ConfigurationError(
                    f"unknown diurnal arrival keys {extra} in {source}"
                )
            return DiurnalArrivals(
                rate_per_min=rate,
                period_ms=float(payload.get("period_ms", 86_400_000.0)),
                amplitude=float(payload.get("amplitude", 0.8)),
                peak_ms=float(payload.get("peak_ms", 0.0)),
            )
        raise ConfigurationError(
            f"unknown arrival process {process!r} in {source}; "
            "known: poisson, diurnal"
        )

    @classmethod
    def from_json(cls, path: str) -> "DemandScenario":
        """Load a scenario from a JSON file (see ``docs/demand_scenarios.md``).

        A relative trace-CSV profile name reads against the directory of
        the scenario file, not the working directory, and keeps the name
        as written as its label, so spec keys do not depend on where the
        checkout lives.
        """
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError as error:
            raise ConfigurationError(
                f"cannot read scenario file {path!r}: {error}"
            ) from None
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"invalid JSON in {path!r}: {error}"
            ) from None
        mix = payload.get("profiles") if isinstance(payload, dict) else None
        if isinstance(mix, dict):
            base = os.path.dirname(path)
            payload = {
                **payload,
                "profiles": {
                    _anchored_profile(name, base): share
                    for name, share in mix.items()
                },
            }
        return cls.from_payload(payload, source=repr(path))

    # -- sampling ----------------------------------------------------------------

    def _combined_rate(self, t_ms: float) -> float:
        rate = self.arrivals.rate_at(t_ms)
        for crowd in self.flash_crowds:
            if crowd.active_at(t_ms):
                rate *= crowd.multiplier
        return rate

    def sample_arrivals(self, rng) -> list[float]:
        """Arrival instants in ``[0, horizon_ms)`` via exact thinning.

        Lewis-Shedler: candidate arrivals are drawn from a homogeneous
        process at the rate envelope (process peak times every crowd
        multiplier above 1) and accepted with probability
        ``rate(t) / envelope`` — an exact sampler for any bounded
        intensity, fully deterministic in ``rng``.
        """
        envelope = self.arrivals.peak_rate()
        for crowd in self.flash_crowds:
            envelope *= max(1.0, crowd.multiplier)
        arrivals: list[float] = []
        t = 0.0
        while True:
            # repro-lint: disable=DET005 -- the Lewis-Shedler recurrence IS this serial accumulation
            t += rng.exponential(1.0 / envelope)
            if t >= self.horizon_ms:
                return arrivals
            if rng.random() * envelope <= self._combined_rate(t):
                arrivals.append(t)

    def _sample_member(self, rng, first: bool):
        """Draw one party member: template, profile, and churn fractions."""
        template = _pick(rng, tuple((c, c.share) for c in self.clients))
        profile = _pick(rng, self.profiles)
        late = (
            not first
            and self.churn.late_join > 0
            and rng.random() < self.churn.late_join
        )
        join_frac = rng.uniform(*_JOIN_WINDOW) if late else 0.0
        leaves = self.churn.leave > 0 and rng.random() < self.churn.leave
        leave_frac = rng.uniform(*_LEAVE_WINDOW) if leaves else None
        switch_to = None
        switch_frac = 0.0
        if self.churn.switch > 0 and rng.random() < self.churn.switch:
            lo = join_frac + _SWITCH_MARGIN
            hi = (leave_frac if leaves else 1.0 - _SWITCH_MARGIN) - _SWITCH_MARGIN
            switch_frac = rng.uniform(lo, hi)
            switch_to = _pick(rng, self._switch_targets())
        spec = ClientSpec(
            app=template.app, profile=profile, weight=template.weight
        )
        return spec, late, join_frac, leave_frac, switch_frac, switch_to

    def _sample_session(self, rng, index: int, arrival_ms: float, seed: int):
        """Expand one arrival into a churning :class:`Session`."""
        size = _pick(rng, self.party_sizes)
        n_frames = int(rng.integers(self.frames_min, self.frames_max + 1))
        duration_ms = n_frames * constants.FRAME_BUDGET_MS
        members = [self._sample_member(rng, first=(k == 0)) for k in range(size)]

        initial = [m for m in members if not m[1]]
        joiners = sorted(
            (m for m in members if m[1]), key=lambda m: m[2]
        )
        indices: dict[int, int] = {}
        for session_index, member in enumerate(initial + joiners):
            indices[id(member)] = session_index

        events: list[SessionEvent] = []
        for member in joiners:
            events.append(Join(member[2] * duration_ms, member[0]))
        for member in members:
            spec, _, _, leave_frac, switch_frac, switch_to = member
            session_index = indices[id(member)]
            if switch_to is not None:
                events.append(
                    ProfileSwitch(
                        switch_frac * duration_ms,
                        client=session_index,
                        profile=switch_to,
                    )
                )
            if leave_frac is not None:
                events.append(Leave(leave_frac * duration_ms, client=session_index))

        session = Session(
            clients=tuple(m[0] for m in initial),
            events=tuple(events),
            sharing_efficiency=self.sharing_efficiency,
            policy=self.policies[0],
            fleet=self.fleet,
        )
        return PlannedSession(
            index=index,
            arrival_ms=arrival_ms,
            n_frames=n_frames,
            seed=seed,
            session=session,
        )

    def expand(
        self, seed: int = 0, max_sessions: int | None = None
    ) -> tuple[PlannedSession, ...]:
        """Expand the scenario into a deterministic tuple of sessions.

        All randomness derives from one PCG64 generator seeded with
        ``seed``: the same ``(scenario, seed)`` pair always yields the
        same sessions, clients, events, and per-session run seeds
        (``seed + SESSION_SEED_STRIDE * (i + 1)``).  ``max_sessions``
        truncates the city after that many arrivals — a capped expansion
        is a strict prefix of the full one, which is what the CI smoke
        cells rely on.
        """
        if max_sessions is not None and max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1, got {max_sessions}"
            )
        rng = np.random.Generator(np.random.PCG64(seed))
        arrivals = self.sample_arrivals(rng)
        if max_sessions is not None:
            arrivals = arrivals[:max_sessions]
        return tuple(
            self._sample_session(
                rng,
                index=i,
                arrival_ms=arrival_ms,
                seed=seed + SESSION_SEED_STRIDE * (i + 1),
            )
            for i, arrival_ms in enumerate(arrivals)
        )


# ---------------------------------------------------------------------------
# Streaming execution
# ---------------------------------------------------------------------------


class _PolicyAccumulator:
    """Order-independent streaming aggregates of one policy's results.

    Everything here is invariant under result completion order (and
    under how results of different policies interleave): integer
    counters, exact-sum :class:`~repro.sim.metrics.StreamSummary`
    aggregates, and sketch percentiles — so the report is bit-identical
    at any shard/worker count.
    """

    __slots__ = (
        "policy", "floor", "sessions", "clients", "client_sessions",
        "executed", "frames", "latency", "fps", "client_p99",
        "met", "measured", "unmeasured",
    )

    def __init__(self, policy: str, floor: float) -> None:
        self.policy = policy
        self.floor = floor
        self.sessions = 0
        self.clients = 0
        self.client_sessions = 0
        self.executed = 0
        self.frames = 0
        self.latency = StreamSummary()
        self.fps = StreamSummary()
        self.client_p99 = StreamSummary()
        self.met = 0
        self.measured = 0
        self.unmeasured = 0

    def observe_plan(self, timeline) -> None:
        """Count one planned session (before execution)."""
        self.sessions += 1
        self.clients += len(timeline.clients)
        self.client_sessions += len(timeline.specs)

    def observe_result(self, result) -> None:
        """Fold one executed client-session and drop it."""
        self.executed += 1
        self.frames += len(result.records)
        result.fold_into(latency=self.latency, fps=self.fps)
        p99 = result.p99_fps
        if math.isnan(p99):
            self.unmeasured += 1
            return
        self.measured += 1
        self.client_p99.add(p99)
        if p99 >= self.floor:
            self.met += 1

    @property
    def attainment(self) -> float:
        """Fraction of measurable client-windows meeting the p99 floor."""
        if self.measured == 0:
            return float("nan")
        return self.met / self.measured

    def report(self) -> dict:
        """The policy's aggregates as a deterministic, JSON-ready dict."""
        return {
            "sessions": self.sessions,
            "clients": self.clients,
            "client_sessions": self.client_sessions,
            "executed": self.executed,
            "queued_clients": self.clients - self.client_sessions,
            "frames": self.frames,
            "latency_ms": self.latency.row(),
            "fps": self.fps.row(),
            "client_p99_fps": self.client_p99.row(),
            "slo": {
                "floor_fps": self.floor,
                "met": self.met,
                "measured": self.measured,
                "unmeasured": self.unmeasured,
                "attainment": self.attainment,
            },
        }


def run_population(
    scenario: DemandScenario,
    seed: int = 0,
    engine: BatchEngine | None = None,
    policies: tuple[str, ...] | None = None,
    max_sessions: int | None = None,
    progress=None,
) -> dict:
    """Expand a demand scenario and stream it through the batch path.

    One session-major pass: every planned session re-plans under each
    policy in turn (:meth:`~repro.sim.session.Session.with_policy`) and
    its frozen specs are fed — lazily, session by session, a session's
    policies back to back — to one
    :meth:`~repro.sim.runner.BatchEngine.stream_specs` call.  A client
    keeps its app, seed and link under every policy, so its specs share
    one :func:`~repro.workloads.generator.memo_group`; the engine runs its
    misses sorted by that group, which puts them back to back, so the
    client's workload stream and foveation kernel are built once and
    read by every policy's spec.  Each completed ``(spec, result)`` pair
    folds into the :class:`_PolicyAccumulator` of ``spec.policy`` and is
    dropped, so results held do not grow with city size; requests do:
    every planned session is expanded up front, and the engine holds
    every spec before it executes any.  When the engine spills to a
    configured stream directory, the run's one stream (every policy's
    shard files) lives in the subdirectory named by its plan digest.

    Returns the deterministic population report: per-policy client-window
    counts, streamed latency / FPS / per-client-p99 summaries, and SLO
    attainment against the scenario's p99-FPS floor.  Bit-identical for
    the same ``(scenario, seed)`` at any shard, worker, or job count.
    ``progress(policy, done, total)`` is called as results fold, if
    given; calls for different policies interleave.
    """
    if engine is None:
        engine = BatchEngine()
    wanted = scenario.policies if policies is None else tuple(policies)
    for policy in wanted:
        if policy not in scenario.policies:
            raise ConfigurationError(
                f"policy {policy!r} is not in the scenario's policy list "
                f"{scenario.policies}"
            )
    planned = scenario.expand(seed, max_sessions=max_sessions)
    accs = {
        policy: _PolicyAccumulator(policy, scenario.slo_p99_fps_floor)
        for policy in wanted
    }

    def spec_stream() -> "Iterator[RunSpec]":
        """Yield each planned session's specs under every policy in turn."""
        for item in planned:
            for policy, acc in accs.items():
                timeline = item.session.with_policy(policy).timeline(
                    system=scenario.system,
                    n_frames=item.n_frames,
                    seed=item.seed,
                )
                acc.observe_plan(timeline)
                yield from timeline.specs

    tracer = obs_trace.active()
    # One span over the whole pass; its ``policies`` attribute lists them.
    with tracer.span(
        "population.policy",
        key=("population.policy", scenario.name, seed, tuple(accs)),
        policies=list(accs),
    ):
        for spec, result in engine.stream_specs(spec_stream()):
            acc = accs[spec.policy]
            acc.observe_result(result)
            obs_metrics.counter(f"population.executed.{acc.policy}").inc()
            if acc.measured:
                obs_metrics.gauge(f"population.slo.{acc.policy}").set(acc.attainment)
            if progress is not None:
                progress(acc.policy, acc.executed, acc.client_sessions)
    policy_reports = {policy: acc.report() for policy, acc in accs.items()}
    first = next(iter(policy_reports.values()), {})
    return {
        "scenario": scenario.name,
        "seed": seed,
        "system": scenario.system,
        "horizon_ms": scenario.horizon_ms,
        "slo_p99_fps_floor": scenario.slo_p99_fps_floor,
        "sessions": len(planned),
        "clients": first.get("clients", 0),
        # repro-lint: disable=DET005 -- integer session counts; sum is order-exact
        "client_sessions": sum(r["client_sessions"] for r in policy_reports.values()),
        # repro-lint: disable=DET005 -- integer session counts; sum is order-exact
        "executed": sum(r["executed"] for r in policy_reports.values()),
        "policies": policy_reports,
    }
