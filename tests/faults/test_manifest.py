"""Ground-truth manifests: windows, spec resolution, JSON round-trip."""


import pytest

from repro.faults.manifest import (
    GroundTruthManifest,
    GroundTruthWindow,
    window_from_spec,
)
from repro.faults.schedule import (
    AgentDegrade,
    CopyFlakiness,
    DbSlowdown,
    FaultSchedule,
    HostFlap,
    MessageDelay,
    MessageDrop,
    ServerCrash,
)


def window(kind="host_flap", start=100.0, end=200.0, **kwargs):
    return GroundTruthWindow(kind=kind, start_s=start, end_s=end, **kwargs)


class TestWindow:
    def test_rejects_backwards_window(self):
        with pytest.raises(ValueError):
            window(start=200.0, end=100.0)

    def test_active_and_grace(self):
        w = window()
        assert not w.active(99.9)
        assert w.active(100.0)
        assert w.active(200.0)
        assert not w.active(230.0)
        assert w.active(230.0, grace_s=60.0)
        assert not w.active(99.9, grace_s=60.0)  # grace trails, never leads

    def test_overlaps(self):
        assert window().overlaps(window(start=150.0, end=250.0))
        assert not window().overlaps(window(start=201.0, end=300.0))

    def test_duration(self):
        assert window().duration_s == pytest.approx(100.0)


class TestWindowFromSpec:
    def test_intensity_fields_per_kind(self):
        cases = [
            (AgentDegrade(10.0, 5.0, drop_rate=0.6, latency_factor=2.0), 0.6),
            (DbSlowdown(10.0, 5.0, factor=4.0), 4.0),
            (CopyFlakiness(10.0, 5.0, fail_rate=0.25), 0.25),
            (MessageDrop(10.0, 5.0, rate=0.4), 0.4),
            (MessageDelay(10.0, 5.0, delay_s=3.0), 3.0),
            (HostFlap(10.0, 5.0, count=2), 1.0),  # no intensity field
        ]
        for spec, intensity in cases:
            assert window_from_spec(spec).intensity == pytest.approx(intensity)

    def test_planned_window_uses_spec_times(self):
        w = window_from_spec(HostFlap(30.0, 45.0))
        assert (w.start_s, w.end_s) == (30.0, 45.0 + 30.0)

    def test_resolved_overrides(self):
        w = window_from_spec(
            HostFlap(30.0, 45.0), start_s=33.0, end_s=80.0, targets=["esx01"]
        )
        assert (w.start_s, w.end_s) == (33.0, 80.0)
        assert w.targets == ("esx01",)

    def test_named_targets_from_spec(self):
        w = window_from_spec(HostFlap(0.0, 5.0, hosts=("esx01", "esx02")))
        assert w.targets == ("esx01", "esx02")

    def test_params_exclude_timing_and_targets(self):
        w = window_from_spec(AgentDegrade(0.0, 5.0, count=3, latency_factor=7.0))
        assert "start_s" not in w.params
        assert "hosts" not in w.params
        assert w.params["latency_factor"] == pytest.approx(7.0)


class TestManifest:
    def test_active_at_sorted_by_proximity(self):
        manifest = GroundTruthManifest(
            [window(start=0.0, end=500.0), window(kind="db_slowdown", start=140.0, end=300.0)]
        )
        active = manifest.active_at(150.0)
        assert [w.kind for w in active] == ["db_slowdown", "host_flap"]

    def test_kinds(self):
        # The CLI's ground-truth listing names every window's kind.
        manifest = GroundTruthManifest([window(), window(kind="db_slowdown", start=150.0)])
        assert manifest.describe() == [
            "   100.0-   200.0s  host_flap          x1  [*]",
            "   150.0-   200.0s  db_slowdown        x1  [*]",
        ]


class TestScheduleGroundTruth:
    def test_planned_view_covers_every_spec(self):
        schedule = (
            FaultSchedule()
            .add(HostFlap(10.0, 20.0, count=2))
            .add(ServerCrash(100.0, 15.0))
        )
        manifest = schedule.ground_truth()
        assert [w.kind for w in manifest] == ["host_flap", "server_crash"]
        assert manifest.windows[1].end_s == pytest.approx(115.0)
