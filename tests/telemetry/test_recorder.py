"""The incident flight recorder: bundles, triggers, round-trips, nulls.

The recorder subscribes to the SLO monitor's fire hook (and a server's
crash hook) and snapshots an IncidentBundle — alerts, rule-referenced
metric windows with exemplars, retained span trees, bus stats, and the
triage verdict — as plain JSON. These tests drive it with a minimal
telemetry hub and a burning ratio rule; the chaos-harness integration is
exercised by R-X7.
"""

import pytest

from repro.sim.kernel import Simulator
from repro.telemetry import (
    NULL_RECORDER,
    FlightRecorder,
    IncidentBundle,
    read_incident_bundle,
    read_incident_bundles,
    render_dashboard,
    write_incident_bundle,
    write_incident_bundles,
)
from repro.telemetry.metrics import Telemetry
from repro.telemetry.recorder import TRIGGER_ALERT, TRIGGER_CRASH
from repro.telemetry.slo import BurnWindow, LatencyRule, RatioRule
from repro.tracing import RetentionPolicy, SampledTracer

WINDOW = BurnWindow(short_s=60.0, long_s=180.0, threshold=2.0)

GOOD = 'done_total{outcome="success"}'
BAD = 'done_total{outcome="error"}'


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def telemetry(sim):
    telemetry = Telemetry(sim, scrape_interval_s=5.0)
    telemetry.add_rule(
        RatioRule(
            name="goodput",
            objective=0.9,
            windows=(WINDOW,),
            bad_metric=BAD,
            total_metrics=(GOOD, BAD),
        )
    )
    return telemetry


def burn(telemetry, time, good=50.0, bad=50.0):
    """Land one window of outcome deltas hot enough to fire the rule."""
    telemetry.rollup(GOOD, "counter").record(time, good)
    telemetry.rollup(BAD, "counter").record(time, bad)


def fire(telemetry, now):
    telemetry.sim.now = now
    burn(telemetry, now)
    telemetry.monitor.evaluate(now)


class TestTriggers:
    def test_alert_snapshot(self, telemetry):
        recorder = FlightRecorder(telemetry).attach()
        fire(telemetry, 100.0)
        assert len(recorder.bundles) == 1
        bundle = recorder.bundles[0]
        assert bundle.trigger == TRIGGER_ALERT
        assert bundle.fired_at == 100.0
        assert bundle.alert_names == ["goodput"]
        # Both rule-referenced metrics landed recent/baseline windows.
        assert set(bundle.metrics) == {GOOD, BAD}
        assert bundle.metrics[BAD]["recent"]["count"] > 0

    def test_refractory_burst_merges_into_one_bundle(self, telemetry):
        telemetry.add_rule(
            RatioRule(
                name="second-rule",
                objective=0.9,
                windows=(WINDOW,),
                bad_metric=BAD,
                total_metrics=(GOOD, BAD),
            )
        )
        recorder = FlightRecorder(telemetry, refractory_s=60.0).attach()
        fire(telemetry, 100.0)
        # Two rules firing in one evaluate = two listener calls, merged.
        assert len(recorder.bundles) == 1
        assert set(recorder.bundles[0].alert_names) == {
            "goodput",
            "second-rule",
        }
        assert recorder.snapshots == 2  # rebuilt, not multiplied

    def test_separate_incidents_get_separate_bundles(self, telemetry):
        recorder = FlightRecorder(telemetry, refractory_s=60.0).attach()
        fire(telemetry, 100.0)
        # Resolve, then burn again far past the refractory window.
        telemetry.monitor.evaluate(400.0)
        fire(telemetry, 1000.0)
        assert len(recorder.bundles) == 2
        assert [b.fired_at for b in recorder.bundles] == [100.0, 1000.0]

    def test_bundle_list_is_bounded(self, telemetry):
        recorder = FlightRecorder(telemetry, refractory_s=1.0, max_bundles=3)
        recorder.attach()
        for index in range(6):
            now = 100.0 + index * 500.0
            fire(telemetry, now)
            telemetry.monitor.evaluate(now + 200.0)  # resolve in between
        assert len(recorder.bundles) == 3
        assert recorder.bundles[-1].fired_at == 100.0 + 5 * 500.0

    def test_crash_snapshot(self, telemetry):
        class FakeServer:
            name = "mgmt"
            crash_listeners: list = []

        server = FakeServer()
        recorder = FlightRecorder(telemetry).attach(server=server)
        assert server.crash_listeners
        server.crash_listeners[0](server, 55.0)
        assert len(recorder.bundles) == 1
        bundle = recorder.bundles[0]
        assert bundle.trigger == TRIGGER_CRASH
        assert bundle.alert_names == ["server-crash:mgmt"]


class TestBundleContents:
    def test_exemplars_and_retained_traces_linked(self, sim):
        telemetry = Telemetry(sim, scrape_interval_s=5.0)
        telemetry.add_rule(
            LatencyRule(
                name="latency",
                objective=0.95,
                metric="op_latency_s",
                threshold_s=1.0,
                windows=(WINDOW,),
            )
        )
        tracer = SampledTracer(sim, RetentionPolicy(span_budget=64))
        recorder = FlightRecorder(telemetry, tracer=tracer).attach()
        hist = telemetry.histogram("op_latency_s", "op latency")
        # One slow errored trace, observed with its trace id as exemplar.
        root = tracer.start_trace("op", phase="task")
        sim.now = 30.0
        root.finish(error="Timeout")
        hist.observe(30.0, trace_id=root.trace_id)
        # The scrape runs the monitor: the rule burns, the alert fires,
        # and the recorder snapshots inside the same evaluate step.
        telemetry.scraper.scrape()
        assert len(recorder.bundles) == 1
        bundle = recorder.bundles[0]
        trace_ids = {entry["trace_id"] for entry in bundle.exemplars}
        assert root.trace_id in trace_ids
        # The exemplar-named tree rode into the trace section.
        assert root.trace_id in [tree["trace_id"] for tree in bundle.traces]
        assert bundle.spans_overlapping(0.0, 30.0) >= 1
        # And the sampler's accounting is embedded.
        assert bundle.retention["retained_trees"] == 1

    def test_trace_section_empty_for_plain_tracer(self, telemetry):
        recorder = FlightRecorder(telemetry).attach()
        fire(telemetry, 100.0)
        bundle = recorder.bundles[0]
        assert bundle.traces == []
        assert bundle.retention is None
        assert bundle.verdict is None
        assert bundle.bus == {}


class TestRoundTrip:
    def _bundle(self, telemetry):
        recorder = FlightRecorder(telemetry).attach()
        fire(telemetry, 100.0)
        return recorder.bundles[0]

    def test_dict_round_trip_exact(self, telemetry):
        bundle = self._bundle(telemetry)
        clone = IncidentBundle.from_dict(bundle.to_dict())
        assert clone == bundle
        assert clone.to_dict() == bundle.to_dict()

    def test_from_dict_rejects_missing_fields(self, telemetry):
        payload = self._bundle(telemetry).to_dict()
        del payload["metrics"]
        with pytest.raises(ValueError, match="missing fields"):
            IncidentBundle.from_dict(payload)

    def test_file_round_trip(self, telemetry, tmp_path):
        bundle = self._bundle(telemetry)
        path = write_incident_bundle(bundle, tmp_path / "incident.json")
        assert read_incident_bundle(path) == bundle

    def test_jsonl_round_trip(self, telemetry, tmp_path):
        bundle = self._bundle(telemetry)
        path = write_incident_bundles([bundle, bundle], tmp_path / "b.jsonl")
        assert read_incident_bundles(path) == [bundle, bundle]


class TestRendering:
    def test_dashboard_drilldown_section(self, telemetry):
        recorder = FlightRecorder(telemetry).attach()
        fire(telemetry, 100.0)
        text = render_dashboard(telemetry, recorder=recorder)
        assert "incident bundles (1)" in text
        assert "goodput" in text

    def test_dashboard_without_recorder_unchanged(self, telemetry):
        fire(telemetry, 100.0)
        assert "incident bundles" not in render_dashboard(telemetry)
        assert "incident bundles" not in render_dashboard(
            telemetry, recorder=NULL_RECORDER
        )


class TestNullRecorder:
    def test_null_recorder_is_inert(self, telemetry):
        before = len(telemetry.monitor.listeners)
        fire(telemetry, 100.0)
        assert len(telemetry.monitor.listeners) == before
        assert NULL_RECORDER.bundles == ()
        assert NULL_RECORDER.is_null
