"""Roll-up series against a per-sample reference (hypothesis).

:class:`RollupSeries` holds recorded samples in a pending list and lands
them in the open window in one loop, and ``trailing`` reuses a cached
merge of the closed windows per horizon. Neither may change a bit of
what a reader sees. The reference below lands every sample in its
window at once (``LogHistogram.record`` per sample) and merges every
overlapping window per query, as the roll-up did before batching; the
property drives both with random streams of samples, histogram deltas
carrying exemplars, reads and trailing queries, through window closes
and retention fold-ups, and compares every field exactly.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import LogHistogram
from repro.telemetry.rollup import RollupSeries

RETENTION = ((10.0, 4), (30.0, 3), (90.0, 2))
HORIZONS = (5.0, 10.0, 25.0, 40.0, 60.0, 500.0)


class RefWindow:
    def __init__(self, start, width):
        self.start = start
        self.width = width
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.last = 0.0
        self.hist = LogHistogram()

    @property
    def end(self):
        return self.start + self.width

    def record(self, value):
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.last = value
        self.hist.record(value)

    def absorb(self, delta):
        if delta.count:
            self.count += delta.count
            self.sum += delta.total
            self.min = min(self.min, delta.min)
            self.max = max(self.max, delta.max)
            self.last = delta.max
            self.hist.merge(delta)

    def add(self, other):
        if other.count:
            self.count += other.count
            self.sum += other.sum
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
            self.last = other.last
            self.hist.merge(other.hist)


class RefRollup:
    """Every sample lands at once; every query merges from scratch."""

    def __init__(self, retention):
        self.retention = retention
        self.levels = [[] for _ in retention]
        self.aggs = [None] * len(retention)
        self.open = None

    def window(self, time):
        width = self.retention[0][0]
        start = math.floor(time / width) * width
        if self.open is None or start > self.open.start:
            if self.open is not None:
                self.push(0, self.open)
            self.open = RefWindow(start, width)
        return self.open

    def push(self, level, window):
        windows = self.levels[level]
        windows.append(window)
        while len(windows) > self.retention[level][1]:
            oldest = windows.pop(0)
            if level + 1 == len(self.retention):
                continue
            width = self.retention[level + 1][0]
            start = math.floor(oldest.start / width) * width
            agg = self.aggs[level + 1]
            if agg is not None and agg.start != start:
                self.push(level + 1, agg)
                agg = None
            if agg is None:
                agg = self.aggs[level + 1] = RefWindow(start, width)
            agg.add(oldest)
            agg.width = max(agg.width, oldest.end - agg.start)

    def windows(self, level):
        out = list(self.levels[level])
        if level > 0 and self.aggs[level] is not None:
            out.append(self.aggs[level])
        if level == 0 and self.open is not None:
            out.append(self.open)
        return out

    def trailing(self, seconds, now):
        cutoff = now - seconds
        merged = RefWindow(cutoff, seconds)
        for window in self.windows(0):
            if window.end > cutoff and window.start < now:
                merged.add(window)
        return merged


def assert_same(window, ref):
    assert (window.start, window.width) == (ref.start, ref.width)
    assert (window.count, window.sum, window.min, window.max, window.last) == (
        ref.count, ref.sum, ref.min, ref.max, ref.last
    )
    hist, ref_hist = window.hist, ref.hist
    assert list(hist._buckets.items()) == list(ref_hist._buckets.items())
    assert (hist.zeros, hist._count, hist._sum, hist._min, hist._max) == (
        ref_hist.zeros, ref_hist._count, ref_hist._sum, ref_hist._min, ref_hist._max
    )
    assert hist.exemplars == ref_hist.exemplars
    if hist.exemplars is not None:
        assert list(hist.exemplars) == list(ref_hist.exemplars)


values = st.one_of(
    st.just(0.0),
    st.sampled_from([0.5, 1.0, 3.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.floats(0.0, 7.0), values, st.none()),
        st.tuples(
            st.just("absorb"),
            st.floats(0.0, 7.0),
            st.lists(values, min_size=0, max_size=3),
            st.one_of(st.none(), st.integers(1, 99)),
        ),
        st.tuples(st.just("read"), st.just(0.0), st.none(), st.none()),
        st.tuples(
            st.just("trailing"),
            # A query may look back from before the newest sample too.
            st.floats(-25.0, 3.0),
            st.one_of(st.sampled_from(HORIZONS), st.floats(0.5, 120.0)),
            st.none(),
        ),
    ),
    max_size=200,
)


@given(steps)
@settings(max_examples=200, deadline=None)
def test_batched_rollup_equals_per_sample_reference(program):
    series = RollupSeries("m", retention=RETENTION)
    ref = RefRollup(RETENTION)
    now = 0.0
    for kind, advance, payload, exemplar in program:
        if kind == "record":
            now += advance
            series.record(now, payload)
            ref.window(now).record(payload)
        elif kind == "absorb":
            now += advance
            delta = LogHistogram()
            for value in payload:
                delta.record(value, exemplar=exemplar)
            series.absorb_histogram(now, delta)
            ref.window(now).absorb(delta)
        elif kind == "read":
            latest = series.latest()
            if ref.open is None:
                assert latest is None
            else:
                assert_same(latest, ref.open)
        else:
            assert_same(
                series.trailing(payload, now + advance),
                ref.trailing(payload, now + advance),
            )
    for level in range(len(RETENTION)):
        got, want = series.windows(level=level), ref.windows(level)
        assert len(got) == len(want)
        for window, ref_window in zip(got, want):
            assert_same(window, ref_window)
    for horizon in HORIZONS:
        assert_same(series.trailing(horizon, now), ref.trailing(horizon, now))


def test_trailing_cache_survives_window_closes():
    """A horizon queried every scrape reuses its cached merge as windows
    close, and still matches the reference at every step."""
    series = RollupSeries("m", retention=((10.0, 6),))
    ref = RefRollup(((10.0, 6),))
    for tick in range(120):
        now = tick * 2.5
        value = float(tick % 7) * 0.37
        series.record(now, value)
        ref.window(now).record(value)
        for horizon in (12.0, 30.0):
            assert_same(series.trailing(horizon, now), ref.trailing(horizon, now))
