"""Scoring triage verdicts against injected ground truth.

The :class:`TriageScorer` matches each verdict's firing time against the
:class:`~repro.faults.manifest.GroundTruthManifest` windows (with a
trailing grace period, :data:`GRACE_S`: burn-rate alerts routinely fire
a little after a short window closes, and the evidence lookback
legitimately sees a just-closed fault) and aggregates:

- **top-1 accuracy** — of the verdicts that fired with at least one
  fault window active, the fraction whose top hypothesis named an active
  window's kind;
- **precision (per kind)** — of the verdicts naming kind K, the fraction
  fired while a K window was actually active;
- **recall (per kind)** — of the injected K windows, the fraction
  credited by at least one verdict whose top hypothesis named K while
  the window was active;
- the **confusion matrix** — injected kind (row) x named kind (column),
  one increment per verdict; verdicts firing with no active window land
  in the ``(none)`` row, "no culprit" verdicts in the ``none`` column.

Verdicts naming :data:`~repro.triage.engine.NO_CULPRIT` never count
against precision — the low-confidence "no culprit" path is the designed
answer for unexplained alerts, not a false accusation.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.triage.engine import NO_CULPRIT, Verdict

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.manifest import GroundTruthManifest

NO_FAULT_ROW = "(none)"
#: Seconds past a fault window's end during which a verdict still counts
#: as firing inside it.
GRACE_S = 240.0


@dataclasses.dataclass
class KindScore:
    """Aggregated counts for one fault kind."""

    kind: str
    injected: int = 0  # ground-truth windows of this kind
    recalled: int = 0  # windows credited by a correct top-1 verdict
    named: int = 0  # verdicts whose top hypothesis named this kind
    named_correct: int = 0  # ... of those, fired while a window was active

    @property
    def precision(self) -> float:
        return self.named_correct / self.named if self.named else 0.0

    @property
    def recall(self) -> float:
        return self.recalled / self.injected if self.injected else 0.0


@dataclasses.dataclass
class ScoreReport:
    """The scorer's output: per-kind scores + confusion matrix + totals."""

    per_kind: dict[str, KindScore]
    confusion: dict[str, dict[str, int]]  # injected row -> named col -> count
    matched_verdicts: int  # verdicts with >= 1 active window
    top1_correct: int
    unmatched_verdicts: int  # verdicts with no active window
    correct_rejections: int  # ... of those, honestly naming "none"
    total_verdicts: int

    @property
    def top1_accuracy(self) -> float:
        return (
            self.top1_correct / self.matched_verdicts if self.matched_verdicts else 0.0
        )

    @property
    def precision(self) -> float:
        named = sum(score.named for score in self.per_kind.values())
        correct = sum(score.named_correct for score in self.per_kind.values())
        return correct / named if named else 0.0

    @property
    def recall(self) -> float:
        injected = sum(score.injected for score in self.per_kind.values())
        recalled = sum(score.recalled for score in self.per_kind.values())
        return recalled / injected if injected else 0.0

    def to_dict(self) -> dict:
        return {
            "top1_accuracy": self.top1_accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "matched_verdicts": self.matched_verdicts,
            "unmatched_verdicts": self.unmatched_verdicts,
            "correct_rejections": self.correct_rejections,
            "total_verdicts": self.total_verdicts,
            "per_kind": {
                kind: {
                    "injected": score.injected,
                    "recalled": score.recalled,
                    "named": score.named,
                    "named_correct": score.named_correct,
                    "precision": score.precision,
                    "recall": score.recall,
                }
                for kind, score in sorted(self.per_kind.items())
            },
            "confusion": {
                row: dict(sorted(cols.items()))
                for row, cols in sorted(self.confusion.items())
            },
        }

    def render(self) -> list[str]:
        lines = [
            f"verdicts: {self.total_verdicts} total, "
            f"{self.matched_verdicts} during fault windows, "
            f"{self.unmatched_verdicts} outside "
            f"({self.correct_rejections} honest no-culprit)",
            f"top-1 accuracy {self.top1_accuracy:.2f}  "
            f"precision {self.precision:.2f}  recall {self.recall:.2f}",
            "",
            f"{'kind':<20} {'injected':>8} {'recalled':>8} "
            f"{'precision':>9} {'recall':>7}",
        ]
        for kind, score in sorted(self.per_kind.items()):
            if score.injected == 0 and score.named == 0:
                continue
            lines.append(
                f"{kind:<20} {score.injected:>8} {score.recalled:>8} "
                f"{score.precision:>9.2f} {score.recall:>7.2f}"
            )
        lines.append("")
        lines.extend(self.render_confusion())
        return lines

    def render_confusion(self) -> list[str]:
        """Injected (rows) x named (columns), only non-empty rows/cols."""
        rows = sorted(self.confusion)
        cols = sorted({col for row in self.confusion.values() for col in row})
        if not rows:
            return ["confusion matrix: (no verdicts)"]
        width = max(14, max(len(c) for c in cols) + 2)
        lines = ["confusion matrix (rows=injected, cols=named):"]
        header = f"{'':<20}" + "".join(f"{col:>{width}}" for col in cols)
        lines.append(header)
        for row in rows:
            cells = "".join(
                f"{self.confusion[row].get(col, 0):>{width}}" for col in cols
            )
            lines.append(f"{row:<20}{cells}")
        return lines


class TriageScorer:
    """Grades verdicts against a ground-truth manifest."""

    def score(
        self,
        verdicts: typing.Sequence[Verdict],
        manifest: "GroundTruthManifest",
    ) -> ScoreReport:
        per_kind: dict[str, KindScore] = {}

        def kind_score(kind: str) -> KindScore:
            return per_kind.setdefault(kind, KindScore(kind=kind))

        for window in manifest:
            kind_score(window.kind).injected += 1

        confusion: dict[str, dict[str, int]] = {}
        recalled_windows: set[int] = set()
        matched = top1 = unmatched = rejections = 0

        for verdict in verdicts:
            named = verdict.named_kind
            active = manifest.active_at(verdict.fired_at, grace_s=GRACE_S)
            if not active:
                unmatched += 1
                if named == NO_CULPRIT:
                    rejections += 1
                else:
                    kind_score(named).named += 1
                confusion.setdefault(NO_FAULT_ROW, {})
                confusion[NO_FAULT_ROW][named] = (
                    confusion[NO_FAULT_ROW].get(named, 0) + 1
                )
                continue
            matched += 1
            naming = [window for window in active if window.kind == named]
            # Confusion row: the active window the verdict matched (its
            # own kind if it named one correctly, else the nearest-start
            # active window the blame *should* have landed on).
            row = (naming[0] if naming else active[0]).kind
            confusion.setdefault(row, {})
            confusion[row][named] = confusion[row].get(named, 0) + 1
            if named == NO_CULPRIT:
                continue
            kind_score(named).named += 1
            if naming:
                top1 += 1
                kind_score(named).named_correct += 1
                for window in naming:
                    window_id = id(window)
                    if window_id not in recalled_windows:
                        recalled_windows.add(window_id)
                        kind_score(window.kind).recalled += 1

        return ScoreReport(
            per_kind=per_kind,
            confusion=confusion,
            matched_verdicts=matched,
            top1_correct=top1,
            unmatched_verdicts=unmatched,
            correct_rejections=rejections,
            total_verdicts=len(verdicts),
        )

    @staticmethod
    def merge(reports: typing.Iterable[ScoreReport]) -> ScoreReport:
        """Pool counts across runs (per-seed reports -> sweep report)."""
        merged = ScoreReport(
            per_kind={},
            confusion={},
            matched_verdicts=0,
            top1_correct=0,
            unmatched_verdicts=0,
            correct_rejections=0,
            total_verdicts=0,
        )
        for report in reports:
            merged.matched_verdicts += report.matched_verdicts
            merged.top1_correct += report.top1_correct
            merged.unmatched_verdicts += report.unmatched_verdicts
            merged.correct_rejections += report.correct_rejections
            merged.total_verdicts += report.total_verdicts
            for kind, score in report.per_kind.items():
                target = merged.per_kind.setdefault(kind, KindScore(kind=kind))
                target.injected += score.injected
                target.recalled += score.recalled
                target.named += score.named
                target.named_correct += score.named_correct
            for row, cols in report.confusion.items():
                target_row = merged.confusion.setdefault(row, {})
                for col, count in cols.items():
                    target_row[col] = target_row.get(col, 0) + count
        return merged
