"""Automated incident triage: from SLO alerts to ranked root-cause verdicts.

The observability stack can *see* control-plane degradation (spans,
telemetry roll-ups, burn-rate alerts) and the fault layer can *cause* it
(twelve injectable fault kinds) — this package connects the two. A
:class:`TriageEngine` attaches to the SLO monitor's fire hook; on each
alert it reads the recent telemetry roll-ups and span store through an
:class:`EvidenceContext` (strictly read-only, so scrapes stay
schedule-neutral), evaluates a catalogue of :class:`TriageRule`\\ s, and
emits a :class:`Verdict`: ranked (fault kind, resource, phase,
confidence) hypotheses, each carrying the evidence chain that supports
it. A :class:`TriageScorer` grades verdicts against the injected
ground truth (:class:`~repro.faults.manifest.GroundTruthManifest`),
reporting precision/recall/top-1 accuracy per fault kind — the R-X6
exhibit runs that scoring over randomized chaos runs.

``NULL_TRIAGE`` is the zero-cost off switch, mirroring ``NULL_TELEMETRY``
/ ``NULL_JOURNAL`` / ``NULL_BUS``: attaching it is a no-op and schedules
are untouched (proven by ``tests/triage/test_triage_neutrality.py``).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.triage.engine": (
            "NO_CULPRIT",
            "NULL_TRIAGE",
            "NullTriageEngine",
            "TriageEngine",
            "Verdict",
        ),
        "repro.triage.evidence": ("Evidence", "EvidenceContext", "Hypothesis", "parse_metric_id"),
        "repro.triage.rules": ("TriageRule", "default_rules"),
        "repro.triage.scoring": ("KindScore", "ScoreReport", "TriageScorer"),
    },
)

__all__ = [
    "Evidence",
    "EvidenceContext",
    "Hypothesis",
    "KindScore",
    "NO_CULPRIT",
    "NULL_TRIAGE",
    "NullTriageEngine",
    "ScoreReport",
    "TriageEngine",
    "TriageRule",
    "TriageScorer",
    "Verdict",
    "default_rules",
    "parse_metric_id",
]
