"""Generated-case properties of the streaming aggregators.

The population report is bit-identical at any shard count because it
folds each result into its aggregates in completion order, and the
aggregates do not depend on the order of their ``add`` calls.  These
properties check that on generated streams — NaN, ±inf and magnitudes
from subnormal to 1e100 — for ``ExactMoments``/``StreamSummary`` and the
``QuantileSketch`` counters, and check the sketch's stated
relative-error contract against NumPy's inverted-CDF quantile.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.metrics import ExactMoments, QuantileSketch, StreamSummary

_VALUES = st.lists(
    st.one_of(
        st.floats(
            min_value=-1e100, max_value=1e100, allow_nan=False, allow_infinity=False
        ),
        st.floats(min_value=1e-3, max_value=1e7),
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    ),
    max_size=60,
)


@st.composite
def _permuted(draw):
    """A value list and one permutation of it."""
    values = draw(_VALUES)
    return values, draw(st.permutations(values))


def _bits(value: float) -> str:
    """Exact identity of a float: sign and every bit (all NaNs alike)."""
    return "nan" if math.isnan(value) else float(value).hex()


def _statistics(aggregate) -> tuple:
    return (aggregate.count,) + tuple(
        _bits(value)
        for value in (
            aggregate.mean, aggregate.std, aggregate.min, aggregate.max,
        )
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_permuted())
def test_exact_moments_are_order_invariant(case):
    values, shuffled = case
    forward, permuted = ExactMoments(), ExactMoments()
    forward.extend(values)
    permuted.extend(shuffled)
    assert _statistics(permuted) == _statistics(forward)
    assert _bits(permuted.variance) == _bits(forward.variance)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_permuted())
def test_stream_summary_and_sketch_counts_are_invariant(case):
    values, shuffled = case
    forward, permuted = StreamSummary(), StreamSummary()
    forward.extend(values)
    permuted.extend(shuffled)
    assert _statistics(permuted) == _statistics(forward)
    assert permuted.sketch.count == forward.sketch.count
    assert permuted.sketch._counts == forward.sketch._counts
    for q in (0.0, 0.5, 0.99, 1.0):
        assert _bits(permuted.quantile(q)) == _bits(forward.quantile(q))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-3, max_value=1e7, exclude_max=True),
        min_size=1,
        max_size=200,
    ),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([8, 64]),
)
def test_quantile_sketch_meets_its_relative_error_bound(values, q, bins):
    sketch = QuantileSketch(bins_per_decade=bins)
    sketch.extend(values)
    exact = float(np.quantile(values, q, method="inverted_cdf"))
    bound = 10.0 ** (1.0 / (2 * bins)) - 1.0
    # A value on a bucket edge may round into the neighbouring bucket.
    assert abs(sketch.quantile(q) - exact) / exact <= bound + 1e-12
