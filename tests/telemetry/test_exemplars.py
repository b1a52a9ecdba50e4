"""Metric exemplars: a trace id riding on histogram buckets.

A LogHistogram bucket can carry the trace id of one recent observation
that landed there; exemplars must survive the whole roll-up pipeline —
scraper delta, window merge, fold-up, trailing queries — so an operator
can jump from "p99 is burning" to the exact retained trace that burned
it. Zero-cost when unused: no exemplar dict is ever allocated unless an
exemplar is recorded.
"""

import pytest

from repro.sim import Simulator
from repro.sim.stats import LogHistogram
from repro.telemetry.metrics import Telemetry


class TestLogHistogramExemplars:
    def test_no_allocation_without_exemplars(self):
        hist = LogHistogram("h")
        hist.record(1.0)
        hist.record(2.0, count=3)
        assert hist.exemplars is None
        assert hist.exemplar_entries() == []

    def test_record_attaches_to_bucket(self):
        hist = LogHistogram("h")
        hist.record(10.0, exemplar=42)
        entries = hist.exemplar_entries()
        assert len(entries) == 1
        upper, trace_id, value = entries[0]
        assert trace_id == 42
        assert value == 10.0
        assert upper >= 10.0

    def test_newer_observation_wins_the_bucket(self):
        hist = LogHistogram("h")
        hist.record(10.0, exemplar=1)
        hist.record(10.1, exemplar=2)  # same log bucket
        entries = hist.exemplar_entries()
        assert len(entries) == 1
        assert entries[0][1] == 2

    def test_distinct_buckets_keep_distinct_exemplars(self):
        hist = LogHistogram("h")
        hist.record(1.0, exemplar=1)
        hist.record(1000.0, exemplar=2)
        assert [entry[1] for entry in hist.exemplar_entries()] == [1, 2]

    def test_zero_values_carry_no_exemplar(self):
        hist = LogHistogram("h")
        hist.record(0.0, exemplar=9)
        assert hist.exemplars is None

    def test_merge_carries_exemplars_incoming_wins(self):
        left = LogHistogram("h")
        left.record(10.0, exemplar=1)
        left.record(500.0, exemplar=7)
        right = LogHistogram("h")
        right.record(10.2, exemplar=2)
        left.merge(right)
        by_trace = {entry[1] for entry in left.exemplar_entries()}
        assert by_trace == {2, 7}  # right's 2 displaced left's 1

    def test_merge_into_exemplarless_histogram(self):
        left = LogHistogram("h")
        left.record(3.0)
        right = LogHistogram("h")
        right.record(10.0, exemplar=5)
        left.merge(right)
        assert [entry[1] for entry in left.exemplar_entries()] == [5]

    def test_copy_preserves_exemplars(self):
        hist = LogHistogram("h")
        hist.record(10.0, exemplar=3)
        dup = LogHistogram("h").merge(hist)
        assert dup.exemplar_entries() == hist.exemplar_entries()
        # And they are independent.
        dup.record(10.1, exemplar=4)
        assert hist.exemplar_entries() != dup.exemplar_entries()


class TestExemplarPipeline:
    @pytest.fixture
    def telemetry(self):
        sim = Simulator()
        return Telemetry(sim, scrape_interval_s=5.0)

    def test_thistogram_observe_threads_trace_id(self, telemetry):
        hist = telemetry.histogram("latency_s", "latency")
        hist.observe(2.0, trace_id=77)
        assert [entry[1] for entry in hist.hist.exemplar_entries()] == [77]

    def test_scraper_delta_carries_only_grown_buckets(self, telemetry):
        hist = telemetry.histogram("latency_s", "latency")
        hist.observe(2.0, trace_id=1)
        telemetry.scraper.scrape()
        # Next aligned window: a new bucket grows; the old one does not,
        # so its (stale) exemplar must not re-enter the fresh window.
        telemetry.sim.now += 60.0
        hist.observe(500.0, trace_id=2)
        telemetry.scraper.scrape()
        series = telemetry.rollups["latency_s"]
        windows = series.windows(level=0, include_open=True)
        assert len(windows) == 2
        first = windows[0].hist.exemplar_entries()
        second = windows[1].hist.exemplar_entries()
        assert [entry[1] for entry in first] == [1]
        assert [entry[1] for entry in second] == [2]  # not 1: bucket unchanged

    def test_exemplar_survives_trailing_merge(self, telemetry):
        hist = telemetry.histogram("latency_s", "latency")
        for index in range(4):
            hist.observe(10.0 * (index + 1), trace_id=100 + index)
            telemetry.sim.now += 5.0
            telemetry.scraper.scrape()
        series = telemetry.rollups["latency_s"]
        trailing = series.trailing(60.0, now=telemetry.sim.now)
        traces = {entry[1] for entry in trailing.hist.exemplar_entries()}
        # Every distinct bucket's exemplar survived the window merge.
        assert {100, 101, 102, 103} <= traces

    def test_exemplar_survives_fold_up(self):
        from repro.telemetry.rollup import RollupSeries

        # Tight retention so level-0 folds into level-1 within a few
        # windows: 4 x 1 s fine, then 4 x 4 s coarse.
        series = RollupSeries("latency_s", "histogram",
                              retention=((1.0, 4), (4.0, 4)))
        for index in range(12):
            delta = LogHistogram("latency_s")
            delta.record(25.0, exemplar=index)
            series.absorb_histogram(float(index), delta)
        folded = series.windows(level=1)
        assert folded  # fold-up actually happened
        traces = [
            entry[1]
            for window in folded
            for entry in window.hist.exemplar_entries()
        ]
        assert traces  # an exemplar survived the fold
        assert all(trace_id < 12 for trace_id in traces)


class TestNullPathStaysFree:
    def test_null_telemetry_observe_accepts_trace_id(self):
        from repro.telemetry.metrics import NULL_TELEMETRY

        NULL_TELEMETRY.histogram("x", "y").observe(1.0, trace_id=5)  # must not raise
