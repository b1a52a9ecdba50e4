"""Metric families, labels, probes, and the null telemetry twin."""

import pytest

from repro.sim.kernel import Simulator
from repro.telemetry.metrics import (
    NULL_METRIC,
    NULL_TELEMETRY,
    Telemetry,
    format_metric_id,
)


@pytest.fixture
def telemetry():
    return Telemetry(Simulator())


class TestFamilies:
    def test_same_name_same_labels_shares_child(self, telemetry):
        a = telemetry.counter("reqs_total", host="h1")
        b = telemetry.counter("reqs_total", host="h1")
        assert a is b
        a.add(2.0)
        assert b.value == 2.0

    def test_distinct_labels_distinct_children(self, telemetry):
        a = telemetry.counter("reqs_total", host="h1")
        b = telemetry.counter("reqs_total", host="h2")
        assert a is not b
        family = telemetry.families["reqs_total"]
        assert len(family.children()) == 2

    def test_label_order_is_canonical(self, telemetry):
        a = telemetry.gauge("depth", zone="z1", host="h1")
        b = telemetry.gauge("depth", host="h1", zone="z1")
        assert a is b

    def test_kind_conflict_rejected(self, telemetry):
        telemetry.counter("reqs_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            telemetry.gauge("reqs_total")

    def test_counter_rejects_negative_and_nonfinite(self, telemetry):
        counter = telemetry.counter("reqs_total")
        with pytest.raises(ValueError):
            counter.add(-1.0)
        with pytest.raises(ValueError):
            counter.add(float("nan"))

    def test_gauge_rejects_nonfinite(self, telemetry):
        gauge = telemetry.gauge("depth")
        with pytest.raises(ValueError):
            gauge.set(float("inf"))
        gauge.set(3.0)
        gauge.add(-1.0)
        assert gauge.value == 2.0

    def test_histogram_observe(self, telemetry):
        hist = telemetry.histogram("latency_s")
        hist.observe(0.5)
        hist.observe(2.0)
        assert hist.hist.count == 2


class TestMetricIds:
    def test_format_without_labels(self):
        assert format_metric_id("reqs_total", ()) == "reqs_total"

    def test_format_with_labels(self):
        labels = (("host", "h1"), ("zone", "z1"))
        assert format_metric_id("reqs_total", labels) == 'reqs_total{host="h1",zone="z1"}'


class TestProbes:
    def test_probe_reads_live_state(self, telemetry):
        state = {"level": 0.25}
        probe = telemetry.probe("util", lambda: state["level"])
        assert probe.value == 0.25
        state["level"] = 0.75
        assert probe.value == 0.75
        assert telemetry.probes == [probe]


class TestNullTelemetry:
    def test_singleton_metric_everywhere(self):
        assert NULL_TELEMETRY.counter("a", host="h") is NULL_METRIC
        assert NULL_TELEMETRY.histogram("c") is NULL_METRIC

    def test_mutations_are_noops(self):
        NULL_METRIC.add(5.0)
        NULL_METRIC.observe(2.0)
        assert NULL_METRIC.__slots__ == ()

    def test_registrations_dropped(self):
        assert NULL_TELEMETRY.probe("p", lambda: 1.0) is None
        assert NULL_TELEMETRY.watch_registry(object()) is None
        assert vars(NULL_TELEMETRY) == {}

    def test_lifecycle_is_inert(self):
        assert NULL_TELEMETRY.start() is NULL_TELEMETRY
        NULL_TELEMETRY.stop()


def test_rejects_nonpositive_scrape_interval():
    with pytest.raises(ValueError):
        Telemetry(Simulator(), scrape_interval_s=0.0)
