"""Generated scalar-vs-vector parity: random ``RunSpec``s, identical bytes.

``tests/sim/test_kernels.py`` pins the engine contract on a hand-picked
grid.  Here hypothesis draws the specs instead: any system, title, GPU
clock, network-profile kind (static, piecewise drop, Markov, trace),
share schedule (solo, shared downlink, private link), late start and
edge frame/warm-up counts.  Both engines must return results whose
pickles are byte-identical; pickling compares NaN fields bitwise, where
dataclass equality would call NaN unequal.  A shrunk counterexample
belongs in ``NAMED_CASES`` below, and a kernel bug it exposes is fixed
in the kernel, never here.
"""

import pickle

from hypothesis import given, settings, strategies as st
import pytest

from repro.network.conditions import WIFI
from repro.network.profile import PROFILES, TraceProfile
from repro.sim.runner import RunSpec, run
from repro.sim.server import POLICY_NAMES
from repro.sim.systems import PlatformConfig, SYSTEM_NAMES
from repro.workloads.apps import APPS


def assert_engines_agree(**fields) -> None:
    spec = RunSpec(**fields)
    vector = run(spec, "vector")
    scalar = run(spec, "scalar")
    assert pickle.dumps(vector) == pickle.dumps(scalar), fields


@st.composite
def networks(draw):
    """One network of each profile kind the platform accepts."""
    kind = draw(st.sampled_from(["static", "piecewise", "markov", "trace"]))
    if kind == "static":
        return WIFI
    if kind == "piecewise":
        return PROFILES[draw(st.sampled_from(["wifi-drop", "4g-drop"]))]
    if kind == "markov":
        return PROFILES["wifi-markov"]
    steps = draw(
        st.lists(st.floats(20.0, 400.0), min_size=1, max_size=3, unique=True)
    )
    cuts = draw(
        st.sets(st.integers(1, 60), min_size=len(steps) - 1, max_size=len(steps) - 1)
    )
    return TraceProfile(
        base=WIFI,
        times_ms=(0.0,) + tuple(10.0 * c for c in sorted(cuts)),
        throughput_mbps=tuple(steps),
    )


@st.composite
def schedules(draw):
    """A ``(start_ms, share)`` step schedule starting at 0 ms."""
    cuts = sorted(draw(st.sets(st.integers(1, 40), max_size=3)))
    starts = (0.0,) + tuple(5.0 * c for c in cuts)
    shares = draw(
        st.lists(st.floats(0.05, 1.0), min_size=len(starts), max_size=len(starts))
    )
    return tuple(zip(starts, shares))


@st.composite
def run_specs(draw):
    """Keyword fields of one valid ``RunSpec`` (engine left out)."""
    n_frames = draw(st.integers(1, 12))
    fields = dict(
        system=draw(st.sampled_from(SYSTEM_NAMES)),
        app=draw(st.sampled_from(sorted(APPS))),
        platform=PlatformConfig(network=draw(networks())).with_gpu_frequency(
            draw(st.sampled_from([300.0, 400.0, 500.0]))
        ),
        n_frames=n_frames,
        warmup_frames=draw(st.integers(0, n_frames - 1)),
        seed=draw(st.integers(0, 3)),
        policy=draw(st.sampled_from(POLICY_NAMES)),
        start_ms=draw(st.sampled_from([0.0, 250.0, 1200.0])),
    )
    sharing = draw(st.sampled_from(["solo", "shared-link", "private-link"]))
    if sharing != "solo":
        fields["server_allocation"] = draw(schedules())
        fields["shared_clients"] = draw(st.integers(1, 4))
        if sharing == "shared-link":
            fields["downlink_allocation"] = draw(schedules())
        else:
            fields["shared_downlink"] = False
    return fields


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run_specs())
def test_random_specs_agree_bytewise(fields):
    assert_engines_agree(**fields)


#: Fixed cases at the edges the generator reaches only by chance.
NAMED_CASES = {
    "one-frame-no-warmup": dict(system="qvr", app="GRID", n_frames=1, warmup_frames=0),
    "late-start-in-drop": dict(
        system="dfr",
        app="Doom3-H",
        platform=PlatformConfig(network=PROFILES["wifi-drop"]),
        n_frames=6,
        warmup_frames=5,
        start_ms=1200.0,
    ),
    "shared-link-starved": dict(
        system="sw-qvr",
        app="HL2-L",
        n_frames=8,
        warmup_frames=2,
        shared_clients=4,
        server_allocation=((0.0, 0.05), (20.0, 1.0)),
        downlink_allocation=((0.0, 0.05),),
    ),
}


@pytest.mark.parametrize("case", sorted(NAMED_CASES))
def test_named_cases_agree_bytewise(case):
    assert_engines_agree(**NAMED_CASES[case])
