"""End-to-end triage chaos points: detection, honesty, determinism."""

import random

import pytest

from repro.triage.harness import (
    QUICK_KINDS,
    SWEEP_KINDS,
    kind_schedule,
    run_triage_point,
)


class TestKindSchedule:
    def test_every_sweep_kind_has_a_schedule(self):
        rng = random.Random(7)
        for kind in SWEEP_KINDS:
            schedule = kind_schedule(kind, rng, 600.0)
            assert len(schedule.specs) == 1
            assert schedule.specs[0].kind == kind

    def test_none_means_no_faults(self):
        assert not kind_schedule(None, random.Random(7), 600.0).specs

    def test_deterministic_per_seed(self):
        a = kind_schedule("agent_degrade", random.Random(11), 600.0).specs[0]
        b = kind_schedule("agent_degrade", random.Random(11), 600.0).specs[0]
        assert a == b

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            kind_schedule("disk_fire", random.Random(7), 600.0)

    def test_quick_kinds_are_a_subset(self):
        assert set(QUICK_KINDS) <= set(SWEEP_KINDS)


class TestRunTriagePoint:
    def test_detects_a_server_crash(self):
        point = run_triage_point(seed=5, kind="server_crash", duration_s=420.0)
        assert point.completed > 0
        assert point.scrapes > 10
        assert point.alerts >= 1
        assert len(point.manifest) == 1
        assert point.manifest.windows[0].kind == "server_crash"
        assert any(v.named_kind == "server_crash" for v in point.verdicts)
        assert point.report.per_kind["server_crash"].recall == 1.0
        assert point.ok

    def test_no_fault_run_stays_honest(self):
        point = run_triage_point(seed=1, kind=None, duration_s=420.0)
        assert point.completed > 0
        assert len(point.manifest) == 0
        # A clean run may alert (it should not), but it must never name
        # a culprit — that is the honesty property `ok` encodes.
        assert all(not v.confident for v in point.verdicts)
        assert point.ok
        assert point.report.total_verdicts == len(point.verdicts)

    def test_same_seed_reproduces_verdicts(self):
        first = run_triage_point(seed=5, kind="server_crash", duration_s=420.0)
        second = run_triage_point(seed=5, kind="server_crash", duration_s=420.0)
        assert [v.render() for v in first.verdicts] == [
            v.render() for v in second.verdicts
        ]
        assert first.manifest.windows == second.manifest.windows
