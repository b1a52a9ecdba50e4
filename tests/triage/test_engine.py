"""TriageEngine: alert wiring, ranking, refractory refinement, null path."""

import types

import pytest

from repro.sim.kernel import Simulator
from repro.telemetry.dashboard import render_dashboard
from repro.telemetry.metrics import Telemetry
from repro.triage.engine import NO_CULPRIT, NULL_TRIAGE, TriageEngine
from repro.triage.rules import TriageRule


def alert(rule="deploy-latency-p99"):
    return types.SimpleNamespace(rule=rule)


class DialRule(TriageRule):
    """Confidence read off a mutable dial, for refinement tests."""

    name = "dial"
    kind = "dial_kind"

    def __init__(self, dial):
        self.dial = dial

    def evaluate(self, ctx):
        if not self.dial[0]:
            return None
        return self._hypothesis("r", self.dial[0], ())


@pytest.fixture
def telemetry():
    return Telemetry(Simulator(), scrape_interval_s=5.0)


class TestTriageNow:
    def test_no_culprit_on_empty_telemetry(self, telemetry):
        engine = TriageEngine(telemetry)
        verdict = engine.triage_now(600.0, alerts=("task-goodput",))
        assert verdict.named_kind == NO_CULPRIT
        assert not verdict.confident
        assert verdict.top.confidence == pytest.approx(0.2)
        assert verdict.alerts == ["task-goodput"]

    def test_names_a_clear_signal(self, telemetry):
        telemetry.rollup("server_crashed", "gauge").record(550.0, 1.0)
        verdict = TriageEngine(telemetry).triage_now(600.0)
        assert verdict.named_kind == "server_crash"
        assert verdict.confident

    def test_ranked_by_confidence_and_capped(self, telemetry):
        dials = [[0.5], [0.9], [0.7]]
        engine = TriageEngine(
            telemetry, rules=[DialRule(d) for d in dials], max_hypotheses=2
        )
        verdict = engine.triage_now(600.0)
        assert [h.confidence for h in verdict.hypotheses] == [0.9, 0.7]

    def test_weak_evidence_leads_with_none(self, telemetry):
        engine = TriageEngine(telemetry, rules=[DialRule([0.3])])
        verdict = engine.triage_now(600.0)
        assert verdict.named_kind == NO_CULPRIT
        # The weak hypothesis survives below the no-culprit headline.
        assert [h.kind for h in verdict.hypotheses] == [NO_CULPRIT, "dial_kind"]

    def test_deterministic_for_identical_state(self, telemetry):
        telemetry.rollup('host_up{host="esx01"}', "gauge").record(550.0, 0.0)
        first = TriageEngine(telemetry).triage_now(600.0, alerts=("a",))
        second = TriageEngine(telemetry).triage_now(600.0, alerts=("a",))
        assert first.render() == second.render()


class TestAlertWiring:
    def test_attach_subscribes_to_monitor(self, telemetry):
        engine = TriageEngine(telemetry)
        assert engine.attach() is engine
        assert engine._on_alert in telemetry.monitor.listeners

    def test_each_distinct_incident_gets_a_verdict(self, telemetry):
        engine = TriageEngine(telemetry, rules=[])
        engine._on_alert(alert("a"), 100.0)
        engine._on_alert(alert("b"), 300.0)
        assert len(engine.verdicts) == 2


class TestRefractoryRefinement:
    def test_burst_refines_in_place_and_merges_alerts(self, telemetry):
        dial = [0.0]
        engine = TriageEngine(telemetry, rules=[DialRule(dial)], refractory_s=60.0)
        engine._on_alert(alert("a"), 100.0)  # evidence not there yet
        assert engine.verdicts[-1].named_kind == NO_CULPRIT
        dial[0] = 0.9
        engine._on_alert(alert("b"), 130.0)  # same incident, better window
        assert len(engine.verdicts) == 1
        verdict = engine.verdicts[0]
        assert verdict.named_kind == "dial_kind"
        assert verdict.alerts == ["a", "b"]

    def test_refinement_never_downgrades(self, telemetry):
        dial = [0.9]
        engine = TriageEngine(telemetry, rules=[DialRule(dial)], refractory_s=60.0)
        engine._on_alert(alert("a"), 100.0)
        dial[0] = 0.5
        engine._on_alert(alert("b"), 130.0)
        assert len(engine.verdicts) == 1
        assert engine.verdicts[0].top.confidence == pytest.approx(0.9)
        assert engine.verdicts[0].alerts == ["a", "b"]  # alerts still merged

    def test_alert_after_refractory_opens_new_incident(self, telemetry):
        dial = [0.9]
        engine = TriageEngine(telemetry, rules=[DialRule(dial)], refractory_s=60.0)
        engine._on_alert(alert("a"), 100.0)
        engine._on_alert(alert("a"), 200.0)
        assert len(engine.verdicts) == 2


class TestNullTriage:
    def test_null_engine_is_inert(self, telemetry):
        assert NULL_TRIAGE.is_null
        assert "-- triage" not in render_dashboard(telemetry, triage=NULL_TRIAGE)
