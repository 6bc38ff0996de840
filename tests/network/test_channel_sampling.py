"""The channel samples its profile once per clock instant, exactly.

``NetworkChannel.conditions`` reuses one sample until ``advance_to``
moves the clock.  That is exact only because every sampler is a pure
function of ``(seed, time)``: for every sampler kind, the channel's
reads at a sequence of instants (with repeats, and with rewinds the
clock ignores) must equal a fresh sampler's at the same instants, and
the channel must have sampled once per instant it read.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.channel import NetworkChannel
from repro.network.conditions import LTE_4G, WIFI
from repro.network.profile import (
    PROFILES,
    AllocatedProfile,
    ConstantProfile,
    OffsetProfile,
    PiecewiseProfile,
    SwitchedProfile,
    TraceProfile,
)

_TRACE = TraceProfile(
    base=WIFI,
    times_ms=(0.0, 400.0, 800.0, 1500.0),
    throughput_mbps=(80.0, 20.0, 60.0, 5.0),
    propagation_ms=(2.0, 9.0, 4.0, 30.0),
)
_DROP = PiecewiseProfile.bandwidth_drop(
    LTE_4G, start_ms=300.0, duration_ms=600.0, factor=0.25
)
_MARKOV = PROFILES["wifi-markov"]

#: One profile per sampler kind.
SAMPLER_KINDS = {
    "constant": ConstantProfile(WIFI),
    "schedule": _DROP,
    "markov": _MARKOV,
    "trace": _TRACE,
    "allocated": AllocatedProfile(
        base=_MARKOV, segments=((0.0, 0.5), (700.0, 0.25)), n_clients=3
    ),
    "offset": OffsetProfile(_TRACE, 350.0),
    "switched": SwitchedProfile(((0.0, _DROP), (1000.0, _MARKOV))),
}

#: Instants drawn from a small pool, so repeats and rewinds are common.
_INSTANTS = st.lists(
    st.sampled_from((0.0, 0.5, 250.0, 299.9, 300.0, 777.7, 1000.0, 2600.0, 9000.0)),
    min_size=1,
    max_size=25,
)


class _Counting:
    """A sampler proxy that counts ``conditions_at`` calls."""

    def __init__(self, sampler) -> None:
        self.sampler = sampler
        self.calls = 0

    def conditions_at(self, t_ms):
        self.calls += 1
        return self.sampler.conditions_at(t_ms)


@pytest.mark.parametrize("kind", sorted(SAMPLER_KINDS))
@settings(max_examples=40, deadline=None)
@given(instants=_INSTANTS, seed=st.integers(0, 2**16))
def test_per_instant_sample_equals_a_fresh_sampler(kind, instants, seed):
    profile = SAMPLER_KINDS[kind]
    channel = NetworkChannel(profile, seed=seed)
    counting = _Counting(channel._sampler)
    channel._sampler = counting
    read_at = []
    for t_ms in instants:
        channel.advance_to(t_ms)
        got = [channel.conditions, channel.conditions]
        want = profile.sampler(seed).conditions_at(channel.now_ms)
        assert got == [want, want]
        if not read_at or read_at[-1] != channel.now_ms:
            read_at.append(channel.now_ms)
    assert counting.calls == len(read_at)
