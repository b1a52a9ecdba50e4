"""The incident flight recorder: alert-triggered self-contained bundles.

The three observability pillars — span traces, metric roll-ups with SLO
burn alerts, and triage verdicts — each answer a different question; the
recorder makes them answer it *together, at incident time*. Attached to
the SLO monitor's fire hook (after triage, so the verdict exists) and the
server's crash hook, it snapshots into one :class:`IncidentBundle`:

- the fired alerts and their burn windows;
- recent vs baseline roll-up summaries for every metric the firing
  rules reference;
- bucket exemplars from those windows (trace ids of concrete slow
  observations — see :meth:`repro.sim.stats.LogHistogram.record`);
- the retained span trees the exemplars name, plus error/retry/slow
  trees overlapping the incident window (from a
  :class:`~repro.tracing.sampling.SampledTracer`'s bounded store);
- per-topic bus delivery stats and recent dead-letter attributions;
- the triage verdict with its full evidence chain.

A bundle is plain JSON (:meth:`IncidentBundle.to_dict` /
:meth:`IncidentBundle.from_dict` round-trip exactly), so it can be
shipped out of the simulation and read without any repro code — the
"evidence at incident time" artifact the paper's post-hoc diagnosis
story calls for.

Like every observability layer here, the recorder is **read-only with
respect to the simulation**: it runs inside the scraper's evaluate step
(or the crash call), touches only roll-ups/spans/stats, draws no
randomness, and schedules stay byte-identical with it attached
(``tests/telemetry/test_recorder_neutrality.py``).
:data:`~repro.telemetry.metrics.NULL_RECORDER` is the zero-cost off
switch.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.telemetry.rollup import RollupSeries, Window
from repro.telemetry.slo import BASELINE_S, LOOKBACK_S, REFRACTORY_S
from repro.tracing.tracer import NULL_TRACER

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.metrics import Telemetry
    from repro.telemetry.slo import Alert

#: Bundle schema version, embedded in every export.
BUNDLE_VERSION = 1

#: Span-tree budget of one bundle: at most this many trees and spans.
MAX_TREES = 24
MAX_SPANS = 2000
#: Bundles kept, newest last; the oldest is dropped past this.
MAX_BUNDLES = 32

TRIGGER_ALERT = "slo-alert"
TRIGGER_CRASH = "server-crash"

_REQUIRED_FIELDS = (
    "trigger",
    "fired_at",
    "alerts",
    "metrics",
    "exemplars",
    "traces",
    "bus",
    "verdict",
    "retention",
)


@dataclasses.dataclass
class IncidentBundle:
    """One incident's evidence, frozen at snapshot time (all plain JSON)."""

    trigger: str
    fired_at: float
    alerts: list[dict[str, typing.Any]]
    metrics: dict[str, typing.Any]
    exemplars: list[dict[str, typing.Any]]
    traces: list[dict[str, typing.Any]]
    bus: dict[str, typing.Any]
    verdict: dict[str, typing.Any] | None
    retention: dict[str, int] | None

    def to_dict(self) -> dict[str, typing.Any]:
        return {
            "version": BUNDLE_VERSION,
            "trigger": self.trigger,
            "fired_at": self.fired_at,
            "alerts": self.alerts,
            "metrics": self.metrics,
            "exemplars": self.exemplars,
            "traces": self.traces,
            "bus": self.bus,
            "verdict": self.verdict,
            "retention": self.retention,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, typing.Any]) -> "IncidentBundle":
        missing = [field for field in _REQUIRED_FIELDS if field not in payload]
        if missing:
            raise ValueError(f"bundle missing fields: {missing}")
        return cls(**{field: payload[field] for field in _REQUIRED_FIELDS})

    # -- convenience queries -------------------------------------------------

    @property
    def alert_names(self) -> list[str]:
        return [alert["rule"] for alert in self.alerts]

    def spans_overlapping(self, lo: float, hi: float) -> int:
        """Retained spans whose interval intersects [lo, hi]."""
        hits = 0
        for tree in self.traces:
            for span in tree["spans"]:
                end = span["end"] if span["end"] is not None else span["start"]
                if span["start"] <= hi and end >= lo:
                    hits += 1
        return hits

    def render(self) -> list[str]:
        """Human-readable drill-down (dashboard / ``repro incident``)."""
        lines = [
            f"t={self.fired_at:8.1f}s  {self.trigger}"
            f"  alerts=[{','.join(self.alert_names)}]"
        ]
        verdict = self.verdict
        if verdict is not None and verdict.get("hypotheses"):
            top = verdict["hypotheses"][0]
            lines.append(
                f"  verdict: {top['kind']} conf={top['confidence']:.2f}"
                f" resource={top['resource']} phase={top['phase']}"
            )
            for item in top.get("evidence", ()):
                lines.append(f"    - {item['statement']} (={item['value']:g})")
        for metric_id, windows in sorted(self.metrics.items()):
            recent = windows["recent"]
            baseline = windows["baseline"]
            lines.append(
                f"  {metric_id}: recent mean={recent['mean']:.3g}"
                f" p99={recent['p99']:.3g} n={recent['count']:.0f}"
                f" | baseline mean={baseline['mean']:.3g}"
                f" n={baseline['count']:.0f}"
            )
        if self.exemplars:
            lines.append(
                "  exemplars: "
                + ", ".join(
                    f"{entry['metric']}<= {entry['bucket_le']:.3g}s"
                    f" -> trace {entry['trace_id']}"
                    for entry in self.exemplars[:4]
                )
            )
        keeps: dict[str, int] = {}
        for tree in self.traces:
            keeps[tree["keep"]] = keeps.get(tree["keep"], 0) + 1
        span_total = sum(len(tree["spans"]) for tree in self.traces)
        lines.append(
            f"  traces: {len(self.traces)} retained"
            f" ({', '.join(f'{k}={v}' for k, v in sorted(keeps.items())) or 'none'})"
            f", {span_total} spans"
        )
        for topic, stats in sorted(self.bus.items()):
            if stats["dead_lettered"] or stats["redelivered"] or stats["dropped"]:
                lines.append(
                    f"  bus {topic}: dead={stats['dead_lettered']}"
                    f" redeliv={stats['redelivered']} drop={stats['dropped']}"
                    f" depth={stats['depth']}"
                )
        return lines


def _merge_between(series: RollupSeries, lo: float, hi: float) -> Window:
    """Merged level-0 roll-up over [lo, hi] (the baseline-window read)."""
    merged = Window(lo, max(0.0, hi - lo))
    for window in series.windows(level=0, include_open=True):
        if window.end > lo and window.start < hi:
            merged.add(window)
    return merged


class FlightRecorder:
    """Snapshots incident bundles on every alert firing and server crash."""

    is_null = False

    def __init__(
        self,
        telemetry: "Telemetry",
        tracer=NULL_TRACER,
        bus=None,
        triage=None,
    ) -> None:
        self.telemetry = telemetry
        self.tracer = tracer
        self.bus = bus
        self.triage = triage
        self.bundles: list[IncidentBundle] = []
        self.snapshots = 0

    def attach(self, server=None) -> "FlightRecorder":
        """Subscribe to alert firings (and optionally a server's crashes).

        Attach *after* the triage engine so its verdict exists by the time
        the bundle is built — listener order on the monitor is call order.
        """
        self.telemetry.monitor.listeners.append(self._on_alert)
        if server is not None:
            server.crash_listeners.append(self._on_crash)
        return self

    # -- hooks ---------------------------------------------------------------

    def _on_alert(self, alert: "Alert", now: float) -> None:
        # Alerts bursting within the refractory window describe one
        # incident: rebuild the last bundle with the union of alerts and
        # the newest evidence instead of multiplying bundles.
        last = self.bundles[-1] if self.bundles else None
        if (
            last is not None
            and last.trigger == TRIGGER_ALERT
            and now - last.fired_at <= REFRACTORY_S
        ):
            alerts = self._active_alerts()
            seen = {a.rule for a in alerts}
            for name in last.alert_names:
                if name not in seen:
                    alerts.append(_NamedAlert(name))
                    seen.add(name)
            self.bundles[-1] = self._snapshot(TRIGGER_ALERT, now, alerts)
            return
        self._append(self._snapshot(TRIGGER_ALERT, now, [alert]))

    def _on_crash(self, server, now: float) -> None:
        self._append(
            self._snapshot(
                TRIGGER_CRASH, now, self._active_alerts(), crash_of=server.name
            )
        )

    def _append(self, bundle: IncidentBundle) -> None:
        self.bundles.append(bundle)
        if len(self.bundles) > MAX_BUNDLES:
            del self.bundles[0]

    def _active_alerts(self) -> list:
        return list(self.telemetry.monitor.active_alerts())

    # -- the snapshot --------------------------------------------------------

    def _snapshot(
        self,
        trigger: str,
        now: float,
        alerts: typing.Sequence,
        crash_of: str | None = None,
    ) -> IncidentBundle:
        self.snapshots += 1
        alert_dicts = [self._alert_dict(alert) for alert in alerts]
        if crash_of is not None:
            alert_dicts.insert(
                0,
                {
                    "rule": f"server-crash:{crash_of}",
                    "fired_at": now,
                    "resolved_at": None,
                    "peak_burn": 0.0,
                    "window": None,
                },
            )
        metric_ids = self._referenced_metrics(alert["rule"] for alert in alert_dicts)
        metrics: dict[str, typing.Any] = {}
        exemplars: list[dict[str, typing.Any]] = []
        for metric_id in sorted(metric_ids):
            series = self.telemetry.rollups.get(metric_id)
            if series is None:
                continue
            recent = series.trailing(LOOKBACK_S, now)
            baseline = _merge_between(
                series, now - LOOKBACK_S - BASELINE_S, now - LOOKBACK_S
            )
            metrics[metric_id] = {
                "recent": recent.summary(),
                "baseline": baseline.summary(),
            }
            for bucket_le, trace_id, value in recent.hist.exemplar_entries():
                exemplars.append(
                    {
                        "metric": metric_id,
                        "bucket_le": bucket_le,
                        "trace_id": trace_id,
                        "value": value,
                    }
                )
        return IncidentBundle(
            trigger=trigger,
            fired_at=now,
            alerts=alert_dicts,
            metrics=metrics,
            exemplars=exemplars,
            traces=self._trace_section(now, exemplars),
            bus=self._bus_section(),
            verdict=self._verdict_section(now, [a["rule"] for a in alert_dicts]),
            retention=self._retention_section(),
        )

    @staticmethod
    def _alert_dict(alert) -> dict[str, typing.Any]:
        window = getattr(alert, "window", None)
        return {
            "rule": alert.rule,
            "fired_at": getattr(alert, "fired_at", 0.0),
            "resolved_at": getattr(alert, "resolved_at", None),
            "peak_burn": getattr(alert, "peak_burn", 0.0),
            "window": None
            if window is None
            else {
                "short_s": window.short_s,
                "long_s": window.long_s,
                "threshold": window.threshold,
            },
        }

    def _referenced_metrics(self, rule_names: typing.Iterable[str]) -> set[str]:
        """Metric ids the firing rules read, resolved from the catalogue."""
        wanted = set(rule_names)
        out: set[str] = set()
        for rule in self.telemetry.monitor.rules:
            if rule.name not in wanted:
                continue
            metric = getattr(rule, "metric", "")
            if metric:
                out.add(metric)
            bad = getattr(rule, "bad_metric", "")
            if bad:
                out.add(bad)
            out.update(getattr(rule, "total_metrics", ()))
            prefix = getattr(rule, "metric_prefix", "")
            if prefix:
                out.update(self.telemetry.series_matching(prefix))
        return out

    def _trace_section(
        self, now: float, exemplars: list[dict[str, typing.Any]]
    ) -> list[dict[str, typing.Any]]:
        """Exemplar-named trees first, then incident-window diagnostics."""
        retained = getattr(self.tracer, "retained_trees", None)
        if retained is None:
            return []
        picked: list = []
        seen: set[int] = set()
        for entry in exemplars:
            tree = self.tracer.retained_tree(entry["trace_id"])
            if tree is not None and tree.trace_id not in seen:
                picked.append(tree)
                seen.add(tree.trace_id)
        lo = now - LOOKBACK_S
        for tree in retained():
            if tree.trace_id in seen or tree.keep == "normal":
                continue
            if tree.overlaps(lo, now):
                picked.append(tree)
                seen.add(tree.trace_id)
        out: list[dict[str, typing.Any]] = []
        span_budget = MAX_SPANS
        for tree in picked[:MAX_TREES]:
            if span_budget - len(tree.spans) < 0 and out:
                break
            span_budget -= len(tree.spans)
            out.append(
                {
                    "trace_id": tree.trace_id,
                    "keep": tree.keep,
                    "sealed_at": tree.sealed_at,
                    "spans": [span.to_dict() for span in tree.spans],
                }
            )
        return out

    def _bus_section(self) -> dict[str, typing.Any]:
        bus = self.bus
        if bus is None or not getattr(bus, "mediated", False):
            return {}
        out: dict[str, typing.Any] = {}
        for name, stats in bus.topic_stats().items():
            topic = bus.topic(name)
            entry = dataclasses.asdict(stats)
            entry["depth"] = topic.depth
            entry["recent_dead"] = [
                {"key": key, "trace_id": trace_id, "time": when, "reason": reason}
                for key, trace_id, when, reason in topic.recent_dead
            ]
            out[name] = entry
        return out

    def _verdict_section(
        self, now: float, alerts: list[str]
    ) -> dict[str, typing.Any] | None:
        triage = self.triage
        if triage is None or getattr(triage, "is_null", True):
            return None
        verdicts = triage.verdicts
        # The engine attaches before the recorder, so on an alert-burst
        # snapshot its freshest verdict already covers this incident.
        if verdicts and now - verdicts[-1].fired_at <= REFRACTORY_S:
            verdict = verdicts[-1]
        else:
            verdict = triage.triage_now(now, alerts=alerts)
        return {
            "fired_at": verdict.fired_at,
            "alerts": list(verdict.alerts),
            "hypotheses": [
                {
                    "kind": h.kind,
                    "resource": h.resource,
                    "phase": h.phase,
                    "confidence": h.confidence,
                    "rule": h.rule,
                    "evidence": [
                        {
                            "signal": e.signal,
                            "statement": e.statement,
                            "value": e.value,
                            "baseline": e.baseline,
                        }
                        for e in h.evidence
                    ],
                }
                for h in verdict.hypotheses
            ],
        }

    def _retention_section(self) -> dict[str, int] | None:
        summary = getattr(self.tracer, "retention_summary", None)
        return summary() if summary is not None else None

    def render(self) -> list[str]:
        lines: list[str] = []
        for bundle in self.bundles:
            lines.extend(bundle.render())
        return lines


class _NamedAlert:
    """Stand-in for an already-resolved alert merged into a refreshed bundle."""

    __slots__ = ("rule",)

    fired_at = 0.0
    resolved_at = None
    peak_burn = 0.0
    window = None

    def __init__(self, rule: str) -> None:
        self.rule = rule
