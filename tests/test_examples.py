"""The session examples run and print their session reports."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize(
    "script, markers",
    [
        ("session_churn.py", ["late-start"]),
        ("fleet_failover.py", ["fleet summary", "window p99"]),
    ],
)
def test_session_example_prints_reports(script, markers, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [script, "60"])
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("epoch  window (ms)  serviced  queued") == 2
    assert out.count("aggregate:") == 2
    for marker in markers:
        assert marker in out
