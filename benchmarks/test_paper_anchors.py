"""The paper's headline numbers, one band check per anchor.

Each :data:`~repro.analysis.calibration.ANCHORS` entry is measured by
exactly one :data:`~repro.analysis.experiments.EXPERIMENTS` entry (the
same table ``repro batch`` prints as its scorecard).  Results come from
the session's ``paper_results``, which the figure benchmarks fill, so
this table runs no simulation of its own.
"""

import pytest

from repro.analysis.calibration import ANCHORS
from repro.analysis.experiments import EXPERIMENTS

MEASURED_BY = {
    anchor: name
    for name, experiment in EXPERIMENTS.items()
    for anchor in experiment.anchors
}


def test_every_anchor_is_measured_once():
    owners = [anchor for e in EXPERIMENTS.values() for anchor in e.anchors]
    assert sorted(owners) == sorted(ANCHORS)


@pytest.mark.parametrize("anchor", list(ANCHORS))
def test_anchor_in_band(anchor, paper_results):
    name = MEASURED_BY[anchor]
    measured = EXPERIMENTS[name].anchors[anchor](paper_results(name))
    band = ANCHORS[anchor]
    assert band.check(measured), (
        f"{anchor} = {measured!r} ({name}) outside [{band.low}, {band.high}]"
    )
