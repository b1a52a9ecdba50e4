"""Unit tests for span-tree analysis on hand-built trees."""

import pytest

from repro.analysis.spans import (
    aggregate_phase_attribution,
    control_plane_share,
    critical_path,
    critical_path_phases,
    exclusive_time,
    phase_attribution,
    queueing_service_split,
)
from repro.sim import Simulator
from repro.tracing import NULL_SPAN, Tracer


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def tracer(sim):
    return Tracer(sim)


def make_span(tracer, sim, name, phase, start, end, parent=None, tags=None):
    sim.now = start
    if parent is None:
        span = tracer.start_trace(name, phase=phase, tags=tags)
    else:
        span = parent.child(name, phase=phase, tags=tags)
    sim.now = end
    span.finish()
    return span


class TestExclusiveTime:
    def test_children_subtract_without_double_count(self, sim, tracer):
        root = make_span(tracer, sim, "root", "task", 0.0, 10.0)
        make_span(tracer, sim, "a", "db", 1.0, 4.0, parent=root)
        make_span(tracer, sim, "b", "agent", 3.0, 6.0, parent=root)  # overlaps a
        assert exclusive_time(tracer, root) == pytest.approx(5.0)

    def test_unfinished_span_contributes_nothing(self, sim, tracer):
        root = tracer.start_trace("root", phase="task")
        assert exclusive_time(tracer, root) == 0.0

    def test_child_clamped_to_parent_window(self, sim, tracer):
        root = make_span(tracer, sim, "root", "task", 2.0, 8.0)
        make_span(tracer, sim, "late", "db", 6.0, 12.0, parent=root)
        assert exclusive_time(tracer, root) == pytest.approx(4.0)


class TestPhaseAttribution:
    def test_sums_exactly_to_root_duration(self, sim, tracer):
        root = make_span(tracer, sim, "root", "task", 0.0, 10.0)
        a = make_span(tracer, sim, "a", "agent", 1.0, 7.0, parent=root)
        make_span(tracer, sim, "a1", "queue", 1.0, 3.0, parent=a)
        make_span(tracer, sim, "b", "db", 8.0, 9.5, parent=root)
        attribution = phase_attribution(root)
        assert sum(attribution.values()) == pytest.approx(10.0)
        assert attribution["queue"] == pytest.approx(2.0)
        assert attribution["agent"] == pytest.approx(4.0)
        assert attribution["db"] == pytest.approx(1.5)
        assert attribution["task"] == pytest.approx(2.5)  # root's gaps

    def test_null_root_empty(self):
        assert phase_attribution(NULL_SPAN) == {}

    def test_aggregate_over_trees(self, sim, tracer):
        r1 = make_span(tracer, sim, "r1", "task", 0.0, 2.0)
        r2 = make_span(tracer, sim, "r2", "task", 0.0, 3.0)
        total = aggregate_phase_attribution([r1, r2])
        assert total["task"] == pytest.approx(5.0)

    def test_control_plane_share_excludes_copy(self):
        assert control_plane_share({"copy": 7.5, "db": 1.5, "queue": 1.0}) == pytest.approx(0.25)
        assert control_plane_share({}) == 0.0


class TestQueueingServiceSplit:
    def test_wait_tag_splits_buckets(self, sim, tracer):
        root = make_span(tracer, sim, "root", "task", 0.0, 10.0)
        make_span(tracer, sim, "wait", "queue", 0.0, 4.0, parent=root, tags={"wait": True})
        make_span(tracer, sim, "work", "agent", 4.0, 9.0, parent=root)
        split = queueing_service_split(root)
        assert split["queueing"] == pytest.approx(4.0)
        assert split["service"] == pytest.approx(6.0)  # work + root gaps
        assert sum(split.values()) == pytest.approx(10.0)


class TestCriticalPath:
    def test_sequential_children_cover_root(self, sim, tracer):
        root = make_span(tracer, sim, "root", "task", 0.0, 10.0)
        make_span(tracer, sim, "a", "db", 0.0, 4.0, parent=root)
        make_span(tracer, sim, "b", "agent", 4.0, 10.0, parent=root)
        segments = critical_path(root)
        assert [segment.span.name for segment in segments] == ["a", "b"]
        assert sum(segment.duration for segment in segments) == pytest.approx(10.0)
        starts = [segment.start for segment in segments]
        assert starts == sorted(starts)

    def test_parallel_children_last_finisher_owns_path(self, sim, tracer):
        root = make_span(tracer, sim, "root", "task", 0.0, 8.0)
        make_span(tracer, sim, "fast", "db", 0.0, 2.0, parent=root)
        make_span(tracer, sim, "slow", "copy", 0.0, 8.0, parent=root)
        segments = critical_path(root)
        assert [segment.span.name for segment in segments] == ["slow"]
        assert critical_path_phases(segments) == {"copy": pytest.approx(8.0)}

    def test_gaps_attributed_to_parent(self, sim, tracer):
        root = make_span(tracer, sim, "root", "task", 0.0, 10.0)
        make_span(tracer, sim, "a", "db", 1.0, 3.0, parent=root)
        make_span(tracer, sim, "b", "agent", 5.0, 9.0, parent=root)
        segments = critical_path(root)
        assert sum(segment.duration for segment in segments) == pytest.approx(10.0)
        phases = critical_path_phases(segments)
        assert phases["task"] == pytest.approx(4.0)  # 0-1, 3-5, 9-10
        assert phases["db"] == pytest.approx(2.0)
        assert phases["agent"] == pytest.approx(4.0)

    def test_recurses_into_nested_spans(self, sim, tracer):
        root = make_span(tracer, sim, "root", "task", 0.0, 6.0)
        outer = make_span(tracer, sim, "outer", "agent", 0.0, 6.0, parent=root)
        make_span(tracer, sim, "inner_wait", "queue", 0.0, 2.0, parent=outer)
        make_span(tracer, sim, "inner_call", "agent", 2.0, 6.0, parent=outer)
        phases = critical_path_phases(critical_path(root))
        assert phases == {
            "queue": pytest.approx(2.0),
            "agent": pytest.approx(4.0),
        }

    def test_null_or_open_root_empty(self, tracer):
        assert critical_path(NULL_SPAN) == []
        open_root = tracer.start_trace("open", phase="task")
        assert critical_path(open_root) == []

    def test_zero_duration_root(self, sim, tracer):
        root = make_span(tracer, sim, "root", "task", 5.0, 5.0)
        assert critical_path(root) == []
        assert phase_attribution(root) == {}
