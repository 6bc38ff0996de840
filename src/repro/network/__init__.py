"""Network substrate: condition presets, time-varying profiles, channel."""

from repro.network.channel import NetworkChannel, snr_efficiency
from repro.network.conditions import (
    ALL_CONDITIONS,
    EARLY_5G,
    LTE_4G,
    NetworkConditions,
    WIFI,
    by_name,
)
from repro.network.profile import (
    AllocatedProfile,
    ConstantProfile,
    MarkovProfile,
    NetworkProfile,
    PROFILES,
    PiecewiseProfile,
    TraceProfile,
    allocated_conditions,
    as_profile,
    profile_by_name,
)

__all__ = [
    "NetworkChannel",
    "snr_efficiency",
    "NetworkConditions",
    "WIFI",
    "LTE_4G",
    "EARLY_5G",
    "ALL_CONDITIONS",
    "by_name",
    "NetworkProfile",
    "ConstantProfile",
    "PiecewiseProfile",
    "TraceProfile",
    "MarkovProfile",
    "AllocatedProfile",
    "PROFILES",
    "as_profile",
    "profile_by_name",
    "allocated_conditions",
]
