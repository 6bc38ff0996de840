"""Experiment harness: the paper-figure registry, reporting, anchors.

Each figure and table has one home, its entry in
:data:`repro.analysis.experiments.EXPERIMENTS` (that module holds the
functions behind them).
"""
