"""Chrome trace flow events linking a task's retry attempts.

Sibling ``attempt-N`` spans under the same parent are one logical retry
chain; the exporter emits paired flow events (ph ``s`` at the earlier
attempt's end, ph ``f`` at the later attempt's start) so Perfetto draws
an arrow between them. Chains are per (trace, parent): two tasks' retry
chains never cross-link.
"""

import json

import pytest

from repro.sim import Simulator
from repro.tracing import Tracer, chrome_trace_events, retry_flow_events


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def tracer(sim):
    return Tracer(sim)


def run_attempts(sim, root, count, gap=2.0, width=1.0):
    spans = []
    for number in range(1, count + 1):
        attempt = root.child(f"attempt-{number}", phase="task")
        sim.now += width
        attempt.finish(error="Boom" if number < count else None)
        spans.append(attempt)
        sim.now += gap
    return spans


def test_consecutive_attempts_linked(sim, tracer):
    root = tracer.start_trace("task.clone", phase="task")
    attempts = run_attempts(sim, root, 3)
    root.finish()

    events = retry_flow_events(tracer.spans)
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert len(starts) == len(finishes) == 2  # 3 attempts -> 2 links
    # Each link leaves the earlier attempt's end and lands on the later
    # attempt's start, sharing one flow id.
    for start, finish, prev, nxt in zip(
        starts, finishes, attempts, attempts[1:]
    ):
        assert start["id"] == finish["id"]
        assert start["ts"] == pytest.approx(prev.end * 1e6)
        assert finish["ts"] == pytest.approx(nxt.start * 1e6)
        assert finish["bp"] == "e"
        assert start["cat"] == finish["cat"] == "retry"


def test_single_attempt_emits_nothing(sim, tracer):
    root = tracer.start_trace("task.clone", phase="task")
    run_attempts(sim, root, 1)
    root.finish()
    assert retry_flow_events(tracer.spans) == []


def test_chains_do_not_cross_traces(sim, tracer):
    root_a = tracer.start_trace("a", phase="task")
    root_b = tracer.start_trace("b", phase="task")
    run_attempts(sim, root_a, 2)
    run_attempts(sim, root_b, 2)
    root_a.finish()
    root_b.finish()

    events = retry_flow_events(tracer.spans)
    assert len([e for e in events if e["ph"] == "s"]) == 2
    # Distinct chains get distinct flow ids.
    ids = {e["id"] for e in events}
    assert len(ids) == 2


def test_non_attempt_spans_ignored(sim, tracer):
    root = tracer.start_trace("task.clone", phase="task")
    child = root.child("placement", phase="placement")
    sim.now = 1.0
    child.finish()
    root.finish()
    assert retry_flow_events(tracer.spans) == []


def test_unfinished_attempts_skipped(sim, tracer):
    root = tracer.start_trace("task.clone", phase="task")
    first = root.child("attempt-1", phase="task")
    sim.now = 1.0
    first.finish(error="Boom")
    root.child("attempt-2", phase="task")  # still open
    assert retry_flow_events(tracer.spans) == []


def test_chrome_export_carries_flow_events(sim, tracer, tmp_path):
    root = tracer.start_trace("task.clone", phase="task")
    run_attempts(sim, root, 2)
    root.finish()

    events = chrome_trace_events(tracer.spans)
    flows = [e for e in events if e.get("cat") == "retry"]
    assert len(flows) == 2
    # And the whole list still round-trips as JSON (the file format).
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(events))
    assert json.loads(path.read_text()) == events
