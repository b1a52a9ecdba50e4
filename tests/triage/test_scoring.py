"""TriageScorer: verdicts vs ground truth — matching, confusion, merge.

Covers the triage edge cases: overlapping fault windows, honest "none"
verdicts (never counted against precision), trailing grace, and recall
credited at most once per injected window.
"""

import pytest

from repro.faults.manifest import GroundTruthManifest, GroundTruthWindow
from repro.triage.engine import NO_CULPRIT, Verdict
from repro.triage.evidence import Hypothesis
from repro.triage.scoring import GRACE_S, NO_FAULT_ROW, TriageScorer


def verdict(at, kind, confidence=0.9):
    return Verdict(
        fired_at=at,
        alerts=["slo"],
        hypotheses=(Hypothesis(kind=kind, resource="r", phase="p",
                               confidence=confidence),),
    )


def window(kind, start, end):
    return GroundTruthWindow(kind=kind, start_s=start, end_s=end)


def manifest(*windows):
    return GroundTruthManifest(windows)


class TestMatching:
    def test_correct_top1(self):
        report = TriageScorer().score(
            [verdict(150.0, "host_flap")], manifest(window("host_flap", 100, 200))
        )
        assert report.top1_accuracy == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.confusion == {"host_flap": {"host_flap": 1}}

    def test_wrong_name_lands_in_off_diagonal(self):
        report = TriageScorer().score(
            [verdict(150.0, "db_slowdown")], manifest(window("host_flap", 100, 200))
        )
        assert report.top1_accuracy == 0.0
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.confusion == {"host_flap": {"db_slowdown": 1}}

    def test_trailing_grace(self):
        truth = manifest(window("host_flap", 100, 200))
        scorer = TriageScorer()
        in_grace = verdict(200.0 + GRACE_S, "host_flap")
        assert scorer.score([in_grace], truth).top1_accuracy == 1.0
        late = scorer.score([verdict(200.0 + GRACE_S + 1.0, "host_flap")], truth)
        assert late.matched_verdicts == 0
        assert late.unmatched_verdicts == 1


class TestNoCulprit:
    def test_honest_none_outside_windows_is_a_correct_rejection(self):
        report = TriageScorer().score(
            [verdict(50.0, NO_CULPRIT)], manifest(window("host_flap", 500, 600))
        )
        assert report.correct_rejections == 1
        assert report.precision == 0.0  # nothing named, nothing penalized
        assert report.confusion == {NO_FAULT_ROW: {NO_CULPRIT: 1}}

    def test_none_during_a_window_is_a_miss_not_a_false_name(self):
        report = TriageScorer().score(
            [verdict(150.0, NO_CULPRIT)], manifest(window("host_flap", 100, 200))
        )
        assert report.matched_verdicts == 1
        assert report.top1_accuracy == 0.0
        assert report.confusion == {"host_flap": {NO_CULPRIT: 1}}
        # No kind was *named*, so per-kind precision is untouched.
        assert report.per_kind["host_flap"].named == 0

    def test_false_name_outside_windows_hurts_precision(self):
        report = TriageScorer().score(
            [verdict(50.0, "db_slowdown")], manifest(window("host_flap", 500, 600))
        )
        assert report.per_kind["db_slowdown"].named == 1
        assert report.per_kind["db_slowdown"].precision == 0.0


class TestOverlappingWindows:
    def test_either_overlapping_kind_is_a_correct_top1(self):
        truth = manifest(
            window("host_flap", 100, 300), window("db_slowdown", 150, 400)
        )
        report = TriageScorer().score([verdict(200.0, "db_slowdown")], truth)
        assert report.top1_accuracy == 1.0
        assert report.per_kind["db_slowdown"].recall == 1.0
        assert report.per_kind["host_flap"].recall == 0.0  # not credited
        assert report.confusion == {"db_slowdown": {"db_slowdown": 1}}

    def test_recall_credits_each_window_once(self):
        truth = manifest(window("host_flap", 100, 300))
        report = TriageScorer().score(
            [verdict(150.0, "host_flap"), verdict(250.0, "host_flap")], truth
        )
        assert report.per_kind["host_flap"].recalled == 1
        assert report.per_kind["host_flap"].named_correct == 2

    def test_two_windows_of_same_kind_need_two_credits(self):
        truth = manifest(
            window("host_flap", 100, 200), window("host_flap", 400, 500)
        )
        report = TriageScorer().score([verdict(150.0, "host_flap")], truth)
        assert report.per_kind["host_flap"].recall == pytest.approx(0.5)


class TestReport:
    def test_merge_pools_counts(self):
        truth = manifest(window("host_flap", 100, 200))
        scorer = TriageScorer()
        a = scorer.score([verdict(150.0, "host_flap")], truth)
        b = scorer.score([verdict(150.0, "db_slowdown")], truth)
        merged = TriageScorer.merge([a, b])
        assert merged.total_verdicts == 2
        assert merged.per_kind["host_flap"].injected == 2
        assert merged.top1_accuracy == pytest.approx(0.5)
        assert merged.confusion["host_flap"] == {"host_flap": 1, "db_slowdown": 1}

    def test_to_dict_and_render_cover_everything(self):
        truth = manifest(window("host_flap", 100, 200))
        report = TriageScorer().score(
            [verdict(150.0, "host_flap"), verdict(900.0, NO_CULPRIT)], truth
        )
        as_dict = report.to_dict()
        assert as_dict["top1_accuracy"] == 1.0
        assert as_dict["correct_rejections"] == 1
        assert as_dict["per_kind"]["host_flap"]["recall"] == 1.0
        text = "\n".join(report.render())
        assert "confusion matrix" in text
        assert "host_flap" in text

    def test_render_confusion_empty(self):
        report = TriageScorer().score([], manifest())
        assert report.render_confusion() == ["confusion matrix: (no verdicts)"]
