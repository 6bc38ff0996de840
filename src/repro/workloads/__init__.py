"""Workload substrate: Table 3 games, Table 1 tethered apps, scene dynamics."""

from repro.workloads.apps import APPS, TABLE3_ORDER, VRApp, get_app
from repro.workloads.generator import FrameWorkload, WorkloadGenerator
from repro.workloads.scene_model import InteractionModel, SceneComplexityModel
from repro.workloads.tethered import TABLE1_ORDER, TETHERED_APPS, TetheredApp

__all__ = [
    "APPS",
    "TABLE3_ORDER",
    "VRApp",
    "get_app",
    "FrameWorkload",
    "WorkloadGenerator",
    "InteractionModel",
    "SceneComplexityModel",
    "TABLE1_ORDER",
    "TETHERED_APPS",
    "TetheredApp",
]
