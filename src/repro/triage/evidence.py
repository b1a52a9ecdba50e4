"""The triage evidence model: read-only views over roll-ups and spans.

An :class:`EvidenceContext` is built once per alert firing and handed to
every rule. It answers the questions rules ask — "how did this signal
behave over the last few minutes, and how does that compare to the
baseline just before?" — using only the telemetry roll-up store and the
span store. It never touches the simulator, so triage runs inside the
scraper's evaluation step without perturbing schedules.

Window arithmetic (see :mod:`repro.telemetry.rollup`):

- scraped **counters** land as per-scrape deltas, so a trailing window's
  ``sum`` is the count in that window and ``sum / seconds`` is a rate;
- **probes/gauges** land as instantaneous levels, so ``min``/``max``/
  ``mean`` are level statistics, and for a *cumulative* probe (e.g. the
  per-topic ``bus_topic_*`` counters surfaced as probes) the increase
  over a window is ``max - min``;
- the **baseline** for a signal is the window of
  :data:`~repro.telemetry.slo.BASELINE_S` seconds immediately *before*
  the recent :data:`~repro.telemetry.slo.LOOKBACK_S` window, computed by
  subtracting nested trailing windows.
"""

from __future__ import annotations

import dataclasses
import re
import typing

from repro.telemetry.slo import BASELINE_S, LOOKBACK_S
from repro.tracing import NULL_TRACER

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.metrics import Telemetry
    from repro.telemetry.rollup import Window

_METRIC_ID_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")
_LABEL_RE = re.compile(r'(\w+)="([^"]*)"')


def parse_metric_id(metric_id: str) -> tuple[str, dict[str, str]]:
    """Split ``name{k="v",...}`` into (name, labels)."""
    match = _METRIC_ID_RE.match(metric_id)
    if match is None:
        return metric_id, {}
    labels_text = match.group("labels")
    labels = dict(_LABEL_RE.findall(labels_text)) if labels_text else {}
    return match.group("name"), labels


@dataclasses.dataclass(frozen=True)
class Evidence:
    """One observed fact supporting a hypothesis."""

    signal: str  # metric id / span query that produced it
    statement: str  # human-readable claim
    value: float
    baseline: float = 0.0

    def render(self) -> str:
        if self.baseline:
            return f"{self.statement} (={self.value:g}, baseline {self.baseline:g})"
        return f"{self.statement} (={self.value:g})"


@dataclasses.dataclass(frozen=True)
class Hypothesis:
    """One ranked root-cause candidate inside a verdict."""

    kind: str  # fault kind named (or "none")
    resource: str  # culprit resource(s): host/datastore/topic/... names
    phase: str  # dominant phase the fault manifests in
    confidence: float  # [0, 1]
    evidence: tuple[Evidence, ...] = ()
    rule: str = ""  # rule that produced it

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "confidence", max(0.0, min(1.0, self.confidence))
        )

    def render(self) -> str:
        return (
            f"{self.kind:<18} conf={self.confidence:4.2f}  "
            f"resource={self.resource}  phase={self.phase}"
        )


class EvidenceContext:
    """Read-only signal reader rules evaluate against, built per alert."""

    def __init__(
        self,
        telemetry: "Telemetry",
        tracer=NULL_TRACER,
        now: float = 0.0,
    ) -> None:
        self.telemetry = telemetry
        self.tracer = tracer
        self.now = now
        # Parse every metric id once; rules do many lookups.
        self._parsed: list[tuple[str, str, dict[str, str]]] = [
            (metric_id, *parse_metric_id(metric_id))
            for metric_id in sorted(telemetry.rollups)
        ]
        self._labels: dict[str, dict[str, str]] = {
            metric_id: labels for metric_id, _, labels in self._parsed
        }
        self._phase_shares: dict[str, float] | None = None

    # -- id discovery ------------------------------------------------------

    def labels(self, metric_id: str) -> dict[str, str]:
        return self._labels.get(metric_id, {})

    def find(
        self,
        name: str | typing.Callable[[str], bool],
        **labels: str,
    ) -> list[str]:
        """Metric ids whose name matches and whose labels include ``labels``.

        ``name`` is an exact metric name or a predicate over the name
        (useful for registry-prefixed ids like ``vc-1.hostd.<id>.timeouts``).
        Results are sorted, so rule evaluation is deterministic.
        """
        predicate = name if callable(name) else name.__eq__
        out = []
        for metric_id, metric_name, metric_labels in self._parsed:
            if not predicate(metric_name):
                continue
            if any(metric_labels.get(k) != v for k, v in labels.items()):
                continue
            out.append(metric_id)
        return out

    # -- window statistics -------------------------------------------------

    def recent(self, metric_id: str, seconds: float | None = None) -> "Window":
        """The trailing window for one series (default :data:`LOOKBACK_S`).

        Pass ``seconds`` for a shorter view: fast-moving counters (a
        datastore going dark) drown in a full lookback that still holds
        minutes of healthy samples.
        """
        return self.telemetry.rollups[metric_id].trailing(
            seconds if seconds is not None else LOOKBACK_S, self.now
        )

    def _long(self, metric_id: str) -> "Window":
        return self.telemetry.rollups[metric_id].trailing(
            LOOKBACK_S + BASELINE_S, self.now
        )

    def recent_sum(self, metric_id: str, seconds: float | None = None) -> float:
        """Counter deltas summed over the lookback (= count in window)."""
        return self.recent(metric_id, seconds).sum

    def baseline_rate(self, metric_id: str) -> float:
        """Counter rate over :data:`BASELINE_S` seconds *before* the lookback."""
        long_sum = self._long(metric_id).sum
        return max(0.0, long_sum - self.recent(metric_id).sum) / BASELINE_S

    def recent_mean(self, metric_id: str) -> float:
        return self.recent(metric_id).mean

    def baseline_mean(self, metric_id: str) -> float:
        """Level mean over the baseline window before the lookback."""
        recent = self.recent(metric_id)
        long = self._long(metric_id)
        count = long.count - recent.count
        if count <= 0:
            return 0.0
        return (long.sum - recent.sum) / count

    def recent_max(self, metric_id: str) -> float:
        window = self.recent(metric_id)
        return window.max if window.count else 0.0

    def recent_min(self, metric_id: str) -> float | None:
        """Minimum level over the lookback; None when no samples landed."""
        window = self.recent(metric_id)
        return window.min if window.count else None

    def increase(self, metric_id: str) -> float:
        """Growth of a cumulative (monotone) probe over the lookback."""
        window = self.recent(metric_id)
        if window.count == 0:
            return 0.0
        return max(0.0, window.max - window.min)

    def sum_over(self, metric_ids: typing.Iterable[str]) -> float:
        return sum(self.recent_sum(metric_id) for metric_id in metric_ids)

    # -- span evidence -----------------------------------------------------

    def phase_shares(self) -> dict[str, float]:
        """Normalized exclusive-time phase shares over the lookback window.

        Empty when tracing is off — rules treat span evidence as a
        confidence boost, never a requirement.
        """
        if self._phase_shares is None:
            from repro.analysis.spans import window_phase_attribution

            attribution = window_phase_attribution(
                self.tracer, self.now - LOOKBACK_S, self.now
            )
            total = sum(attribution.values())
            self._phase_shares = (
                {phase: seconds / total for phase, seconds in attribution.items()}
                if total > 0
                else {}
            )
        return self._phase_shares
