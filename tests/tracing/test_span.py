"""Unit tests for span primitives, the tracer, and export round-trips."""

import json

import pytest

from repro.sim import Simulator
from repro.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    PHASES,
    Span,
    Tracer,
    chrome_trace_events,
    plane_seconds_from_span,
    read_spans_jsonl,
    write_chrome_trace,
    write_spans_jsonl,
)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def tracer(sim):
    return Tracer(sim)


class TestSpan:
    def test_lifecycle_on_simulated_time(self, sim, tracer):
        span = tracer.start_trace("task.clone", phase="task")
        assert not span.finished
        sim.now = 2.5  # the kernel owns time; tests may poke it directly
        span.finish()
        assert span.finished
        assert span.duration == 2.5
        assert span.ok

    def test_unknown_phase_rejected(self, tracer):
        with pytest.raises(ValueError, match="unknown phase"):
            tracer.start_trace("x", phase="nonsense")

    def test_finish_is_idempotent_first_wins(self, sim, tracer):
        span = tracer.start_trace("x", phase="task")
        sim.now = 1.0
        span.finish()
        sim.now = 9.0
        span.finish(error="TooLate")
        assert span.end == 1.0
        assert span.ok  # the late error did not stick

    def test_error_finish_keeps_duration(self, sim, tracer):
        span = tracer.start_trace("x", phase="agent")
        sim.now = 3.0
        span.finish(error="HostTimeout")
        assert span.duration == 3.0
        assert not span.ok
        assert span.tags["error"] == "HostTimeout"

    def test_duration_before_finish_raises(self, tracer):
        span = tracer.start_trace("x", phase="task")
        with pytest.raises(RuntimeError, match="not finished"):
            span.duration

    def test_child_links_context(self, tracer):
        root = tracer.start_trace("root", phase="task")
        child = root.child("kid", phase="db")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert tracer.children(root) == [child]

    def test_annotate(self, tracer):
        span = tracer.start_trace("x", phase="task")
        span.annotate("attempts", 3)
        assert span.tags["attempts"] == 3

    def test_phase_taxonomy_is_closed(self):
        assert len(PHASES) == len(set(PHASES))
        assert "copy" in PHASES and "queue" in PHASES


class TestNullSpan:
    def test_shared_inert_singleton(self):
        assert NULL_SPAN.is_null
        assert NULL_SPAN.child("x") is NULL_SPAN
        assert NULL_SPAN.finish(error="boom") is NULL_SPAN
        NULL_SPAN.annotate("k", 1)
        assert not hasattr(NULL_SPAN, "tags")

    def test_null_tracer_allocates_nothing(self, sim):
        assert NULL_TRACER.start_trace("x") is NULL_SPAN
        assert NULL_TRACER.start_span("x", parent=NULL_SPAN) is NULL_SPAN
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.roots() == []


class TestTracer:
    def test_subtree_preorder(self, sim, tracer):
        root = tracer.start_trace("root", phase="task")
        a = root.child("a", phase="db")
        b = root.child("b", phase="agent")
        a1 = a.child("a1", phase="queue")
        order = [span.name for span in tracer.subtree(root)]
        assert order[0] == "root"
        assert set(order) == {"root", "a", "b", "a1"}
        assert order.index("a") < order.index("a1")
        assert a1 in tracer.subtree(a)
        assert b not in tracer.subtree(a)

    def test_roots_and_open_spans(self, sim, tracer):
        root = tracer.start_trace("r", phase="task")
        child = root.child("c", phase="db")
        assert tracer.roots() == [root]
        assert set(tracer.open_spans()) == {root, child}
        child.finish()
        root.finish()
        assert tracer.open_spans() == []

    def test_clear(self, tracer):
        tracer.start_trace("r", phase="task")
        tracer.clear()
        assert tracer.spans == []
        assert tracer.roots() == []

    def test_plane_seconds_counts_only_ok_plane_tagged(self, sim, tracer):
        root = tracer.start_trace("r", phase="task")
        ctl = root.child("validate", phase="cpu", tags={"plane": "control"})
        sim.now = 1.0
        ctl.finish()
        data = root.child("copy", phase="copy", tags={"plane": "data"})
        sim.now = 4.0
        data.finish()
        failed = root.child("retry", phase="cpu", tags={"plane": "control"})
        sim.now = 6.0
        failed.finish(error="Boom")
        untagged = root.child("db.write", phase="db")
        sim.now = 7.0
        untagged.finish()
        root.finish()
        assert plane_seconds_from_span(root, "control") == 1.0
        assert plane_seconds_from_span(root, "data") == 3.0


class TestExport:
    def _make_tree(self, sim, tracer):
        root = tracer.start_trace("task.clone", phase="task", tags={"task_id": 7})
        child = root.child("db.write", phase="db", tags={"rows": 2})
        sim.now = 0.25
        child.finish()
        sim.now = 1.5
        root.finish()
        return root, child

    def test_chrome_events_shape(self, sim, tracer):
        root, child = self._make_tree(sim, tracer)
        events = chrome_trace_events(tracer.spans)
        assert [event["ph"] for event in events] == ["X", "X"]
        by_name = {event["name"]: event for event in events}
        assert by_name["task.clone"]["dur"] == pytest.approx(1.5e6)
        assert by_name["db.write"]["args"]["parent_id"] == root.span_id
        assert by_name["db.write"]["args"]["rows"] == 2
        # Parent sorts before child at the same timestamp (longer first).
        assert events[0]["name"] == "task.clone"

    def test_chrome_trace_file(self, sim, tracer, tmp_path):
        self._make_tree(sim, tracer)
        path = tmp_path / "trace.json"
        count = write_chrome_trace(tracer.spans, path)
        assert count == 2
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == 2

    def test_jsonl_round_trip(self, sim, tracer, tmp_path):
        root, child = self._make_tree(sim, tracer)
        path = tmp_path / "spans.jsonl"
        assert write_spans_jsonl(tracer.spans, path) == 2
        loaded = read_spans_jsonl(path)
        assert [row["name"] for row in loaded] == ["task.clone", "db.write"]
        assert loaded[0]["span_id"] == root.span_id
        assert loaded[1]["parent_id"] == root.span_id
        assert loaded[0]["end"] == 1.5

    def test_jsonl_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"name": "x"}) + "\n")
        with pytest.raises(ValueError):
            read_spans_jsonl(path)
