"""Experiment harness: the paper-figure registry, reporting, anchors.

Each figure and table has one home, its entry in :data:`EXPERIMENTS`
(:mod:`repro.analysis.experiments` holds the functions behind them).
"""

from repro.analysis.calibration import ANCHORS, Anchor, format_scorecard, within_band
from repro.analysis.experiments import EXPERIMENTS, Experiment
from repro.analysis.report import format_series, format_session, format_table

__all__ = [
    "ANCHORS",
    "Anchor",
    "format_scorecard",
    "within_band",
    "EXPERIMENTS",
    "Experiment",
    "format_series",
    "format_session",
    "format_table",
]
