"""LatencyRecorder sorts on read: every query equals a sorted() oracle."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import LatencyRecorder


def signed(values):
    """Floats with their sign, so 0.0 and -0.0 compare different."""
    return [(value, math.copysign(1.0, value)) for value in values]


def signed_cdf(pairs):
    return [(value, math.copysign(1.0, value), fraction) for value, fraction in pairs]


def oracle_percentile(ordered, fraction):
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low, high = ordered[math.floor(position)], ordered[math.ceil(position)]
    if math.floor(position) == math.ceil(position) or low == high:
        return low
    weight = position - math.floor(position)
    return min(high, max(low, low * (1 - weight) + high * weight))


def oracle_cdf(ordered, points):
    if not ordered:
        return []
    n = len(ordered)
    out = [(ordered[i], (i + 1) / n) for i in range(0, n, max(1, n // points))]
    if out[-1][1] < 1.0:
        out.append((ordered[-1], 1.0))
    return out


# Mostly a few distinct values, so ties (and 0.0 beside -0.0) are common.
sample = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0]),
    st.sampled_from([0.0, -0.0, 0.5, 7.25]),
    st.floats(min_value=0.0, max_value=1e6),
)
step = st.one_of(
    st.tuples(st.just("record"), sample),
    st.tuples(st.just("record"), sample),
    st.tuples(st.just("percentile"), st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("cdf"), st.integers(min_value=1, max_value=60)),
    st.tuples(st.just("samples")),
    st.tuples(st.just("count")),
    st.tuples(st.just("mean")),
)


@given(steps=st.lists(step, max_size=120))
@settings(max_examples=150, deadline=None)
def test_reads_interleaved_with_records_match_sorted_oracle(steps):
    recorder = LatencyRecorder("lat")
    recorded: list[float] = []
    for kind, *args in steps:
        # sorted() is stable: equal samples keep recording order, which
        # is where an insertion sort (insort_right) put them too.
        ordered = sorted(recorded)
        if kind == "record":
            recorder.record(args[0])
            recorded.append(args[0])
        elif kind == "percentile":
            assert signed([recorder.percentile(args[0])]) == signed(
                [oracle_percentile(ordered, args[0])]
            )
        elif kind == "cdf":
            assert signed_cdf(recorder.cdf(args[0])) == signed_cdf(
                oracle_cdf(ordered, args[0])
            )
        elif kind == "samples":
            assert signed(recorder.samples()) == signed(ordered)
        elif kind == "count":
            assert recorder.count == len(recorded)
        elif kind == "mean":
            total = 0.0
            for value in recorded:
                total += value
            assert recorder.mean == (total / len(recorded) if recorded else 0.0)
    assert signed(recorder.samples()) == signed(sorted(recorded))


def test_count_and_mean_do_not_sort():
    recorder = LatencyRecorder("lat")
    for value in (3.0, 1.0, 2.0):
        recorder.record(value)
    assert (recorder.count, recorder.mean) == (3, 2.0)
    assert recorder._samples == [3.0, 1.0, 2.0]
    assert recorder.percentile(0.5) == 2.0
    assert recorder._samples == [1.0, 2.0, 3.0]


def test_zero_and_negative_zero_keep_recording_order():
    recorder = LatencyRecorder("lat")
    for value in (1.0, 0.0, -0.0, 0.0):
        recorder.record(value)
    assert signed(recorder.samples()) == signed([0.0, -0.0, 0.0, 1.0])
    recorder.record(-0.0)
    assert signed(recorder.samples()) == signed([0.0, -0.0, 0.0, -0.0, 1.0])
    assert math.copysign(1.0, recorder.percentile(0.0)) == 1.0
