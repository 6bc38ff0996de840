"""The benchmark workloads: each a set-up step and one closed-loop call.

Every workload is closed-loop: one caller submits the whole batch and
waits for the report.  The city's Poisson arrivals happen in simulated
time and put no open-loop load on the host.

``BENCHMARK.json`` names ``fig12-grid`` and ``city-sharded``.
``city-serial`` is the serial reference run of the ``city-sharded``
slice: its digest is the one the sharded run must reproduce.

A workload's ``prepare(seed, scratch)`` does the set-up (scenario JSON
load, spec construction, engine construction) and returns a
:class:`Prepared` whose ``run()`` is the timed call.  ``check`` then
turns the output into a :class:`Checked` digest outside the timed
region, raising :class:`OutputError` on a malformed output.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "examples" / "population.json"

FIG12_SYSTEMS = ("local", "static", "ffr", "dfr", "sw-qvr", "qvr")
FIG12_FRAMES = 120
FIG12_SEEDS_PER_RUN = 4
CITY_SESSIONS = 60
SHARD_JOBS = 2
SHARD_COUNT = 4
PAPER_QVR_SPEEDUP = 3.4


class OutputError(RuntimeError):
    """A workload produced an output that fails its structural check."""


@dataclass
class Checked:
    """A checked output: its digest, operation count and exact readouts."""

    digest: str
    operations: int
    readouts: dict = field(default_factory=dict)


@dataclass
class Prepared:
    """A set-up workload: the timed call and the output check."""

    run: Callable[[], object]
    check: Callable[[object], Checked]


@dataclass(frozen=True)
class Workload:
    """One workload of ``BENCHMARK.json``, or the reference run of one."""

    name: str
    default_seed: int
    prepare: Callable[[int, Path], Prepared]
    golden_of: str = ""

    @property
    def golden_key(self) -> str:
        """The workload whose golden digests this one must reproduce."""
        return self.golden_of or self.name


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _report_digest(report: dict) -> str:
    """SHA-256 of a population report's canonical JSON."""
    return _sha256(json.dumps(report, sort_keys=True).encode())


# -- fig12-grid ---------------------------------------------------------------


def fig12_seeds(seed: int) -> tuple[int, ...]:
    """The run seeds of one fig12-grid input: four per benchmark seed."""
    first = FIG12_SEEDS_PER_RUN * seed
    return tuple(range(first, first + FIG12_SEEDS_PER_RUN))


def _prepare_fig12(seed: int, scratch: Path) -> Prepared:
    from repro.sim.runner import BatchEngine, Sweep, speedup_over
    from repro.workloads.apps import TABLE3_ORDER

    specs = Sweep(
        systems=FIG12_SYSTEMS,
        apps=TABLE3_ORDER,
        seeds=fig12_seeds(seed),
        n_frames=FIG12_FRAMES,
    ).specs()
    engine = BatchEngine()

    def run() -> dict:
        return engine.run_specs(specs)

    def check(results: dict) -> Checked:
        if len(results) != len(specs):
            raise OutputError(f"{len(results)} results for {len(specs)} specs")
        ordered = [results[spec] for spec in specs]
        for spec, result in zip(specs, ordered):
            if len(result.records) != spec.n_frames:
                raise OutputError(f"{spec.system}/{spec.app}: short record list")
        by_point: dict[tuple, dict] = {}
        for spec, result in zip(specs, ordered):
            by_point.setdefault((spec.app, spec.seed), {})[spec.system] = result
        speedup = statistics.fmean(
            speedup_over(group, "qvr") for group in by_point.values()
        )
        if not speedup > 1.0:
            raise OutputError(f"qvr is not faster than local ({speedup!r})")
        return Checked(
            digest=_sha256(pickle.dumps(ordered, protocol=4)),
            operations=len(specs),
            readouts={"qvr_speedup_over_local": speedup},
        )

    return Prepared(run=run, check=check)


# -- city-serial / city-sharded -----------------------------------------------


def _check_population(report: dict) -> Checked:
    for policy, row in report["policies"].items():
        if row["executed"] != row["client_sessions"]:
            raise OutputError(
                f"{policy}: executed {row['executed']} of "
                f"{row['client_sessions']} client-sessions"
            )
    if report["executed"] < 1:
        raise OutputError("the population slice executed nothing")
    return Checked(digest=_report_digest(report), operations=report["executed"])


def _prepare_city(seed: int, engine_factory) -> Prepared:
    from repro.sim.demand import DemandScenario, run_population

    scenario = DemandScenario.from_json(str(SCENARIO))
    engine = engine_factory()

    def run() -> dict:
        return run_population(
            scenario, seed=seed, engine=engine, max_sessions=CITY_SESSIONS
        )

    return Prepared(run=run, check=_check_population)


def _prepare_city_serial(seed: int, scratch: Path) -> Prepared:
    from repro.sim.runner import BatchEngine

    return _prepare_city(seed, BatchEngine)


def _prepare_city_sharded(seed: int, scratch: Path) -> Prepared:
    from repro.sim.runner import BatchEngine

    stream_dir = scratch / "stream"
    os.makedirs(stream_dir, exist_ok=False)
    return _prepare_city(
        seed,
        lambda: BatchEngine(
            jobs=SHARD_JOBS,
            shards=SHARD_COUNT,
            shard_mode="process",
            stream_dir=stream_dir,
        ),
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fig12-grid", 0, _prepare_fig12),
        Workload("city-serial", 7, _prepare_city_serial),
        Workload("city-sharded", 7, _prepare_city_sharded, golden_of="city-serial"),
    )
}
