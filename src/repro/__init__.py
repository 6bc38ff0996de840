"""Q-VR reproduction: collaborative foveated rendering for mobile VR.

A complete Python reproduction of *Q-VR: System-Level Design for Future
Mobile Collaborative Virtual Reality* (ASPLOS 2021): the collaborative
foveated software layer (adaptive fovea sizing, Eq. 1), the LIWC hardware
workload controller (Eq. 2 + Q-learning table), the unified composition
and ATW unit (Eq. 3/4), every baseline the paper compares against, and the
full simulation substrate (mobile GPU timing model, network/codec models,
motion traces, discrete-event pipeline, energy accounting).

Quick start::

    from repro import run_comparison, speedup_over

    results = run_comparison("GRID", systems=("local", "qvr"))
    print(speedup_over(results, "qvr"))  # end-to-end speedup over local
"""

from repro._version import __version__
from repro.core.foveation import DisplayGeometry, FoveationModel, MARModel, PartitionPlan
from repro.core.liwc import LIWC, LIWCConfig
from repro.core.uca import UCAConfig, UCAUnit
from repro.network.conditions import ALL_CONDITIONS, EARLY_5G, LTE_4G, WIFI
from repro.network.profile import (
    ConstantProfile,
    MarkovProfile,
    NetworkProfile,
    PiecewiseProfile,
    TraceProfile,
    as_profile,
    profile_by_name,
)
from repro.sim.metrics import FrameRecord, SimulationResult
from repro.sim.runner import (
    BatchEngine,
    RunSpec,
    Sweep,
    run,
    run_comparison,
    speedup_over,
)
from repro.sim.systems import PlatformConfig, SYSTEM_NAMES, make_system
from repro.workloads.apps import APPS, TABLE3_ORDER, get_app

__all__ = [
    "MARModel",
    "DisplayGeometry",
    "FoveationModel",
    "PartitionPlan",
    "LIWC",
    "LIWCConfig",
    "UCAUnit",
    "UCAConfig",
    "WIFI",
    "LTE_4G",
    "EARLY_5G",
    "ALL_CONDITIONS",
    "NetworkProfile",
    "ConstantProfile",
    "PiecewiseProfile",
    "TraceProfile",
    "MarkovProfile",
    "as_profile",
    "profile_by_name",
    "SimulationResult",
    "FrameRecord",
    "RunSpec",
    "Sweep",
    "BatchEngine",
    "run",
    "run_comparison",
    "speedup_over",
    "PlatformConfig",
    "SYSTEM_NAMES",
    "make_system",
    "APPS",
    "TABLE3_ORDER",
    "get_app",
    "__version__",
]
