"""Property-based tests on the log-bucket histogram (hypothesis).

The fixed-log-bucket design exists so that merge is exact: any grouping
of the same samples into histograms and any merge order must yield the
same buckets, counts, and sums, and bucketed quantiles must bracket the
true sample quantile within one bucket's relative error. These are the
invariants the scrape/roll-up pipeline leans on.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import LOG_HISTOGRAM_BASE, LogHistogram
from repro.telemetry.rollup import Window

samples = st.lists(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=200,
)
nonempty_samples = st.lists(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


def build(values):
    hist = LogHistogram("h")
    for value in values:
        hist.record(value)
    return hist


@given(samples)
@settings(max_examples=80)
def test_count_and_sum_exact(values):
    hist = build(values)
    assert hist.count == len(values)
    assert hist.total == pytest.approx(math.fsum(values))
    if values:
        assert hist.min == min(values)
        assert hist.max == max(values)


@given(samples, samples)
@settings(max_examples=80)
def test_merge_equals_rebuild(a, b):
    merged = build(a).merge(build(b))
    rebuilt = build(a + b)
    assert merged.count == rebuilt.count
    assert merged.zeros == rebuilt.zeros
    assert merged._buckets == rebuilt._buckets
    assert merged.total == pytest.approx(rebuilt.total)


@given(samples, samples, samples)
@settings(max_examples=60)
def test_merge_associative(a, b, c):
    left = build(a).merge(build(b)).merge(build(c))
    right = build(a).merge(build(b).merge(build(c)))
    assert left._buckets == right._buckets
    assert left.zeros == right.zeros
    assert left.count == right.count
    assert left.total == pytest.approx(right.total)


@given(nonempty_samples, st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=80)
def test_quantile_bounds_bracket_true_quantile(values, fraction):
    hist = build(values)
    low, high = hist.quantile_bounds(fraction)
    rank = max(1, math.ceil(fraction * len(values)))
    true = sorted(values)[rank - 1]
    assert low <= true * (1 + 1e-9)
    assert high >= true * (1 - 1e-9)
    # The bracket is one bucket wide: relative error bounded by the base.
    if low > 0:
        assert high / low <= LOG_HISTOGRAM_BASE * (1 + 1e-9)


@given(nonempty_samples, st.floats(min_value=1e-3, max_value=1e9))
@settings(max_examples=80)
def test_count_at_or_above_conservative(values, threshold):
    hist = build(values)
    exact = sum(1 for value in values if value >= threshold)
    counted = hist.count_at_or_above(threshold)
    # Never undercounts (conservative toward "bad"), and only overcounts
    # within the threshold's own bucket.
    assert counted >= exact
    overcount_limit = sum(
        1
        for value in values
        if value >= threshold / LOG_HISTOGRAM_BASE * (1 - 1e-9)
    )
    assert counted <= overcount_limit


def test_rejects_bad_values():
    hist = LogHistogram("h")
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError):
            hist.record(bad)


# Both ends of the float range: signed zeros, subnormals and values up to
# the largest finite float (whose bucket's upper edge overflows).
extreme_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, sys.float_info.min, sys.float_info.max]),
    st.floats(
        min_value=0.0,
        max_value=sys.float_info.max,
        allow_nan=False,
        allow_infinity=False,
        allow_subnormal=True,
    ),
)


def _signed(value):
    """A value with its sign bit, so 0.0 and -0.0 compare unequal."""
    return (value, math.copysign(1.0, value))


@given(st.lists(extreme_values, min_size=1, max_size=100))
@settings(max_examples=150)
def test_record_matches_builtin_min_max(values):
    hist = LogHistogram("h")
    window = Window(0.0, 60.0)
    total = 0.0
    for value in values:
        hist.record(value)
        window.record(value)
        total += value
    for got_min, got_max, count, got_sum in (
        (hist.min, hist.max, hist.count, hist.total),
        (window.min, window.max, window.count, window.sum),
    ):
        assert _signed(got_min) == _signed(min(values))
        assert _signed(got_max) == _signed(max(values))
        assert count == len(values)
        assert got_sum == total


@given(
    st.lists(extreme_values, min_size=0, max_size=20),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, -1.0, -5e-324, -sys.float_info.max]
    ),
)
@settings(max_examples=80)
def test_record_still_rejects_nonfinite_and_negative(values, bad):
    hist = LogHistogram("h")
    for value in values:
        hist.record(value)
    before = (hist.count, hist.total, hist.min, hist.max, hist.buckets())
    with pytest.raises(ValueError):
        hist.record(bad)
    assert (hist.count, hist.total, hist.min, hist.max, hist.buckets()) == before
    with pytest.raises(ValueError):
        hist.record(1.0, count=0)


def test_merge_requires_matching_base():
    with pytest.raises(ValueError):
        LogHistogram("a", base=2.0).merge(LogHistogram("b", base=4.0))
