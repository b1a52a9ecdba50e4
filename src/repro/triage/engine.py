"""The triage engine: SLO alert firings in, ranked verdicts out.

:class:`TriageEngine` attaches to the SLO monitor's fire hook
(:attr:`~repro.telemetry.slo.SloMonitor.listeners`). Every new alert
firing builds an :class:`~repro.triage.evidence.EvidenceContext` over the
recent roll-ups and spans, evaluates the full rule catalogue, and records
a :class:`Verdict` whose hypotheses are ranked by confidence (ties broken
by kind/resource so verdicts are deterministic for a fixed seed). When
nothing clears :data:`MIN_CONFIDENCE` the verdict leads with a low-confidence
``"none"`` hypothesis — an honest "no culprit identified" beats a
confidently wrong name.

The engine is **read-only with respect to the simulation**: it runs
inside the scraper's evaluate step, touches only the roll-up store and
span store, and schedules stay byte-identical with triage attached
(``tests/triage/test_triage_neutrality.py``). :data:`NULL_TRIAGE` is the
zero-cost off switch: importing it loads neither the rule catalogue nor
the evidence layer, which a :class:`TriageEngine` imports when built.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.tracing import NULL_TRACER

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.metrics import Telemetry
    from repro.telemetry.slo import Alert, SloMonitor
    from repro.triage.evidence import Hypothesis
    from repro.triage.rules import TriageRule

#: Kind named when no rule clears the confidence bar.
NO_CULPRIT = "none"
#: The confidence a leading hypothesis must reach to be named.
MIN_CONFIDENCE = 0.35


@dataclasses.dataclass
class Verdict:
    """One triage outcome: what fired, and the ranked root-cause candidates."""

    fired_at: float
    alerts: list[str]
    hypotheses: tuple[Hypothesis, ...]

    @property
    def top(self) -> Hypothesis:
        return self.hypotheses[0]

    @property
    def named_kind(self) -> str:
        return self.hypotheses[0].kind if self.hypotheses else NO_CULPRIT

    @property
    def confident(self) -> bool:
        return self.named_kind != NO_CULPRIT

    def render(self, evidence: bool = True) -> list[str]:
        lines = [
            f"t={self.fired_at:8.1f}s  alerts=[{','.join(self.alerts)}]"
            f"  verdict: {self.named_kind}"
        ]
        for rank, hypothesis in enumerate(self.hypotheses, start=1):
            lines.append(f"  #{rank} {hypothesis.render()}")
            if evidence:
                for item in hypothesis.evidence:
                    lines.append(f"       - {item.render()}")
        return lines


class TriageEngine:
    """Rule-and-evidence root-cause engine over telemetry and spans."""

    is_null = False

    def __init__(
        self,
        telemetry: "Telemetry",
        tracer=NULL_TRACER,
        rules: typing.Sequence[TriageRule] | None = None,
        lookback_s: float = 180.0,
        baseline_s: float = 420.0,
        max_hypotheses: int = 5,
        refractory_s: float = 60.0,
    ) -> None:
        from repro.triage.rules import default_rules

        self.telemetry = telemetry
        self.tracer = tracer
        self.rules: list[TriageRule] = (
            list(rules) if rules is not None else default_rules()
        )
        self.lookback_s = lookback_s
        self.baseline_s = baseline_s
        self.max_hypotheses = max_hypotheses
        self.refractory_s = refractory_s
        self.verdicts: list[Verdict] = []

    def attach(self, monitor: "SloMonitor | None" = None) -> "TriageEngine":
        """Subscribe to alert firings (defaults to the telemetry's monitor)."""
        target = monitor if monitor is not None else self.telemetry.monitor
        target.listeners.append(self._on_alert)
        return self

    def _on_alert(self, alert: "Alert", now: float) -> None:
        # Alerts arriving in a burst describe one incident. Within the
        # refractory window the incident's verdict *refines* instead of
        # multiplying: the first alert often beats the evidence (a rule
        # can fire ~2 roll-up windows into a fault, before a failure
        # fraction means anything), so re-run triage with the newer
        # window and keep whichever evaluation is more confident.
        if (
            self.verdicts
            and now - self.verdicts[-1].fired_at <= self.refractory_s
        ):
            previous = self.verdicts[-1]
            alerts = list(previous.alerts)
            if alert.rule not in alerts:
                alerts.append(alert.rule)
            refined = self.triage_now(now, alerts=alerts)
            if refined.top.confidence >= previous.top.confidence:
                self.verdicts[-1] = refined
            else:
                previous.alerts[:] = alerts
            return
        self.verdicts.append(self.triage_now(now, alerts=(alert.rule,)))

    def triage_now(
        self, now: float, alerts: typing.Sequence[str] = ()
    ) -> Verdict:
        """Run the rule catalogue once at ``now`` and rank the output.

        Pure over the telemetry/span state: no simulator interaction, no
        randomness — the same state always yields the same verdict.
        """
        from repro.triage.evidence import Evidence, EvidenceContext, Hypothesis

        ctx = EvidenceContext(
            self.telemetry,
            tracer=self.tracer,
            now=now,
            lookback_s=self.lookback_s,
            baseline_s=self.baseline_s,
        )
        hypotheses: list[Hypothesis] = []
        for rule in self.rules:
            hypothesis = rule.evaluate(ctx)
            if hypothesis is not None and hypothesis.confidence > 0.0:
                hypotheses.append(hypothesis)
        hypotheses.sort(key=lambda h: (-h.confidence, h.kind, h.resource))
        hypotheses = hypotheses[: self.max_hypotheses]
        if not hypotheses or hypotheses[0].confidence < MIN_CONFIDENCE:
            # Low-confidence "no culprit": an alert without a nameable
            # cause must not produce a wrong name.
            no_culprit = Hypothesis(
                kind=NO_CULPRIT,
                resource="-",
                phase="-",
                confidence=0.2,
                evidence=(
                    Evidence(
                        "triage",
                        "no rule cleared the confidence threshold "
                        f"({MIN_CONFIDENCE:g})",
                        hypotheses[0].confidence if hypotheses else 0.0,
                    ),
                ),
                rule="no-culprit",
            )
            hypotheses.insert(0, no_culprit)
        return Verdict(
            fired_at=now, alerts=list(alerts), hypotheses=tuple(hypotheses)
        )

    def render(self, evidence: bool = False) -> list[str]:
        lines: list[str] = []
        for verdict in self.verdicts:
            lines.extend(verdict.render(evidence=evidence))
        return lines


class NullTriageEngine:
    """Triage off: attaching is a no-op and nothing is ever recorded."""

    is_null = True
    verdicts: tuple = ()


NULL_TRIAGE = NullTriageEngine()
