"""EvidenceContext window arithmetic against hand-fed roll-ups.

Every context reads the incident window of :mod:`repro.telemetry.slo`:
a 180 s lookback after a 420 s baseline.
"""

import pytest

from repro.sim.kernel import Simulator
from repro.telemetry.metrics import Telemetry
from repro.telemetry.slo import BASELINE_S, LOOKBACK_S
from repro.triage.evidence import EvidenceContext, Hypothesis, parse_metric_id


@pytest.fixture
def telemetry():
    return Telemetry(Simulator(), scrape_interval_s=5.0)


def ctx_at(telemetry, now):
    return EvidenceContext(telemetry, now=now)


class TestParseMetricId:
    def test_plain_name(self):
        assert parse_metric_id("tasks_total") == ("tasks_total", {})

    def test_labels(self):
        name, labels = parse_metric_id('host_up{host="esx01",zone="a"}')
        assert name == "host_up"
        assert labels == {"host": "esx01", "zone": "a"}

    def test_registry_prefixed_name(self):
        name, labels = parse_metric_id('vc-1.hostd.host-3.timeouts{host="esx02"}')
        assert name == "vc-1.hostd.host-3.timeouts"
        assert labels == {"host": "esx02"}


class TestHypothesis:
    def test_confidence_clamped(self):
        assert Hypothesis("k", "r", "p", 1.7).confidence == 1.0
        assert Hypothesis("k", "r", "p", -0.2).confidence == 0.0


class TestWindows:
    def test_recent_sum_counts_lookback_only(self, telemetry):
        # Roll-ups are 60 s-bucket granular: the lookback covers every
        # level-0 window overlapping [now - lookback, now].
        series = telemetry.rollup("errors_total", "counter")
        for t, v in [(10.0, 1.0), (250.0, 2.0), (370.0, 4.0)]:
            series.record(t, v)
        assert LOOKBACK_S == 180.0
        ctx = ctx_at(telemetry, now=390.0)
        assert ctx.recent_sum("errors_total") == pytest.approx(6.0)

    def test_recent_sum_shorter_window(self, telemetry):
        series = telemetry.rollup("errors_total", "counter")
        for t, v in [(50.0, 2.0), (85.0, 4.0)]:
            series.record(t, v)
        ctx = ctx_at(telemetry, now=90.0)
        assert ctx.recent_sum("errors_total", seconds=10.0) == pytest.approx(4.0)

    def test_baseline_rate_excludes_lookback(self, telemetry):
        series = telemetry.rollup("errors_total", "counter")
        series.record(30.0, 12.0)  # baseline era: [second 0, 420)
        series.record(500.0, 100.0)  # lookback era
        ctx = ctx_at(telemetry, now=LOOKBACK_S + BASELINE_S)
        assert ctx.recent_sum("errors_total") == pytest.approx(100.0)
        assert ctx.baseline_rate("errors_total") == pytest.approx(12.0 / BASELINE_S)

    def test_gauge_mean_and_min(self, telemetry):
        series = telemetry.rollup("host_up", "gauge")
        for t, v in [(70.0, 1.0), (80.0, 0.0), (90.0, 0.0)]:
            series.record(t, v)
        ctx = ctx_at(telemetry, now=95.0)
        assert ctx.recent_mean("host_up") == pytest.approx(1.0 / 3.0)
        assert ctx.recent_min("host_up") == 0.0
        assert ctx.recent_max("host_up") == 1.0

    def test_recent_min_none_when_empty(self, telemetry):
        telemetry.rollup("host_up", "gauge").record(5.0, 1.0)
        ctx = ctx_at(telemetry, now=500.0)
        assert ctx.recent_min("host_up") is None
        assert ctx.recent_max("host_up") == 0.0

    def test_increase_of_cumulative_probe(self, telemetry):
        series = telemetry.rollup("bus_topic_published", "gauge")
        for t, v in [(60.0, 10.0), (75.0, 14.0), (90.0, 21.0)]:
            series.record(t, v)
        ctx = ctx_at(telemetry, now=95.0)
        assert ctx.increase("bus_topic_published") == pytest.approx(11.0)

    def test_increase_empty_window_is_zero(self, telemetry):
        telemetry.rollup("bus_topic_published", "gauge")
        ctx = ctx_at(telemetry, now=95.0)
        assert ctx.increase("bus_topic_published") == 0.0


class TestFind:
    def test_find_by_name_and_labels(self, telemetry):
        for host in ("esx02", "esx01"):
            telemetry.rollup(f'host_up{{host="{host}"}}', "gauge").record(1.0, 1.0)
        telemetry.rollup("server_crashed", "gauge").record(1.0, 0.0)
        ctx = ctx_at(telemetry, now=10.0)
        assert ctx.find("host_up") == [
            'host_up{host="esx01"}',
            'host_up{host="esx02"}',
        ]
        assert ctx.find("host_up", host="esx02") == ['host_up{host="esx02"}']
        assert ctx.find("absent") == []

    def test_find_by_predicate(self, telemetry):
        telemetry.rollup(
            'vc-1.hostd.host-3.timeouts{host="esx02"}', "counter"
        ).record(1.0, 1.0)
        ctx = ctx_at(telemetry, now=10.0)
        ids = ctx.find(lambda name: name.endswith(".timeouts"))
        assert ids == ['vc-1.hostd.host-3.timeouts{host="esx02"}']
        assert ctx.labels(ids[0]) == {"host": "esx02"}
