"""Unit tests for metrics primitives."""

import pytest

from repro.sim import Gauge, LatencyRecorder, LogHistogram, Simulator, TimeSeries
from repro.sim.stats import LOG_HISTOGRAM_BASE
from repro.telemetry.metrics import TCounter, Telemetry


def test_counter_accumulates():
    counter = TCounter("ops")
    counter.add()
    counter.add(4)
    assert counter.value == 5


def test_counter_rejects_decrease():
    counter = TCounter("ops")
    with pytest.raises(ValueError, match=">= 0"):
        counter.add(-1)


def test_counter_rejects_non_finite():
    counter = TCounter("ops")
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="must be finite"):
            counter.add(bad)
    assert counter.value == 0.0


def test_gauge_rejects_non_finite():
    sim = Simulator()
    gauge = Gauge(sim, "depth")
    gauge.set(3.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="must be finite"):
            gauge.set(bad)
        with pytest.raises(ValueError, match="must be finite"):
            gauge.add(bad)
    assert gauge.value == 3.0
    assert gauge.series() == [(0.0, 0.0), (0.0, 3.0)]


def test_latency_rejects_non_finite():
    recorder = LatencyRecorder("lat")
    recorder.record(1.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="must be finite"):
            recorder.record(bad)
    # A rejected sample must not corrupt the sorted invariant or the sum.
    assert recorder.count == 1
    assert recorder.mean == 1.0


def test_gauge_time_average():
    sim = Simulator()
    gauge = Gauge(sim, "depth")

    def proc():
        gauge.set(2.0)          # level 2 on [0, 4)
        yield sim.timeout(4.0)
        gauge.set(6.0)          # level 6 on [4, 8)
        yield sim.timeout(4.0)
        gauge.set(0.0)

    sim.spawn(proc())
    sim.run()
    assert gauge.time_average() == pytest.approx((2 * 4 + 6 * 4) / 8)
    assert gauge.maximum == 6.0


def test_gauge_add_is_relative():
    sim = Simulator()
    gauge = Gauge(sim, "depth")
    gauge.add(3)
    gauge.add(-1)
    assert gauge.value == 2


def test_latency_percentiles():
    recorder = LatencyRecorder("lat")
    for value in [1.0, 2.0, 3.0, 4.0, 5.0]:
        recorder.record(value)
    assert recorder.percentile(0.0) == 1.0
    assert recorder.percentile(0.5) == 3.0
    assert recorder.percentile(1.0) == 5.0
    assert recorder.percentile(0.25) == 2.0
    assert recorder.mean == 3.0
    assert recorder.count == 5


def test_latency_empty_percentile_is_zero():
    recorder = LatencyRecorder("lat")
    assert recorder.percentile(0.99) == 0.0
    assert recorder.mean == 0.0


def test_latency_rejects_bad_inputs():
    recorder = LatencyRecorder("lat")
    with pytest.raises(ValueError):
        recorder.record(-1.0)
    recorder.record(1.0)
    with pytest.raises(ValueError):
        recorder.percentile(1.5)


def test_latency_cdf_is_monotone_and_complete():
    recorder = LatencyRecorder("lat")
    for value in range(100):
        recorder.record(float(value))
    cdf = recorder.cdf(points=10)
    fractions = [fraction for _, fraction in cdf]
    assert fractions == sorted(fractions)
    assert cdf[-1][1] == 1.0
    values = [value for value, _ in cdf]
    assert values == sorted(values)


def test_histogram_binning():
    histogram = LogHistogram("depth")
    for value in [0, 1, 1.1, 2, 3]:
        histogram.record(value)
    # Bucket i covers [base**i, base**(i+1)), four buckets per octave;
    # zeros keep their own bucket.
    base = LOG_HISTOGRAM_BASE
    assert histogram.buckets() == [(0.0, 1), (base, 2), (base ** 5, 1), (base ** 7, 1)]
    assert histogram.count == 5


def test_histogram_validates_edges():
    with pytest.raises(ValueError):
        LogHistogram("bad").record(-1.0)


def test_timeseries_bins_and_gap_fill():
    series = TimeSeries("arrivals", bin_width=10.0)
    series.record(1.0)
    series.record(5.0)
    series.record(35.0, amount=2.0)
    bins = series.bins()
    assert bins == [(0.0, 2.0), (10.0, 0.0), (20.0, 0.0), (30.0, 2.0)]


def test_timeseries_empty():
    series = TimeSeries("arrivals", bin_width=10.0)
    assert series.bins() == []


def test_timeseries_validates_width():
    with pytest.raises(ValueError):
        TimeSeries("bad", bin_width=0.0)


def test_registry_reuses_metrics_by_name():
    telemetry = Telemetry(Simulator())
    first = telemetry.counter("ops", host="host1")
    assert telemetry.counter("ops", host="host1") is first
    assert telemetry.families["ops"].children() == [first]


def test_registry_prefix_isolation():
    telemetry = Telemetry(Simulator())
    one = telemetry.scope("a")
    two = telemetry.scope("b")
    one.counter("ops").add(5)
    two.counter("ops")  # never written: never joins the families
    assert telemetry.families["a.ops"].children()[0].value == 5
    assert "b.ops" not in telemetry.families
