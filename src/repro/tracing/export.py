"""Span export: Chrome trace-event JSON and JSONL dumps.

``chrome://tracing`` (or https://ui.perfetto.dev) loads the trace-event
format directly: each finished span becomes one complete ("X") event,
grouped one trace per track so a task's span tree renders as a nested
flame. Sibling ``attempt-N`` spans of the same task additionally get
flow ("s"/"f") events chaining attempt N's end to attempt N+1's start,
so a retried task reads as one causal arrow across the forest instead of
disconnected slices. JSONL is the machine-readable dump for offline
analysis and round-tripping.
"""

from __future__ import annotations

import json
import pathlib
import typing

from repro.tracing.span import Span

# Simulated seconds -> trace-event microseconds.
_US = 1_000_000.0

_ATTEMPT_PREFIX = "attempt-"


def _attempt_number(span: Span) -> int | None:
    """Attempt ordinal for ``attempt-N`` spans, else None."""
    if not span.name.startswith(_ATTEMPT_PREFIX):
        return None
    try:
        return int(span.name[len(_ATTEMPT_PREFIX):])
    except ValueError:
        return None


def retry_flow_events(
    spans: typing.Iterable[Span],
) -> list[dict[str, typing.Any]]:
    """Flow events chaining a task's retry attempts in attempt order.

    Sibling finished ``attempt-N`` spans (same trace, same parent) are
    sorted by N; each consecutive pair yields a flow-start ("s") anchored
    at the earlier attempt's end and a flow-finish ("f") at the later
    attempt's start, sharing a flow id. Tasks with a single attempt emit
    nothing.
    """
    chains: dict[tuple[int, int | None], list[tuple[int, Span]]] = {}
    for span in spans:
        if not span.finished:
            continue
        number = _attempt_number(span)
        if number is None:
            continue
        key = (span.trace_id, span.parent_id)
        chains.setdefault(key, []).append((number, span))
    events: list[dict[str, typing.Any]] = []
    flow_id = 0
    for key in sorted(chains, key=lambda item: (item[0], item[1] or 0)):
        attempts = sorted(chains[key], key=lambda pair: pair[0])
        for (_, prev), (number, nxt) in zip(attempts, attempts[1:]):
            flow_id += 1
            common = {
                "name": "retry",
                "cat": "retry",
                "pid": 1,
                "tid": prev.trace_id,
                "id": flow_id,
            }
            events.append({**common, "ph": "s", "ts": prev.end * _US})
            events.append(
                {**common, "ph": "f", "bp": "e", "ts": nxt.start * _US}
            )
    return events


def chrome_trace_events(spans: typing.Iterable[Span]) -> list[dict[str, typing.Any]]:
    """Finished spans as Chrome trace-event dicts (unfinished are skipped).

    Includes retry flow events (see :func:`retry_flow_events`) so
    multi-attempt tasks render with causal arrows between attempts.
    """
    spans = list(spans)
    events: list[dict[str, typing.Any]] = []
    for span in spans:
        if not span.finished:
            continue
        args: dict[str, typing.Any] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        args.update(span.tags)
        events.append(
            {
                "name": span.name,
                "cat": span.phase,
                "ph": "X",
                "ts": span.start * _US,
                "dur": (span.end - span.start) * _US,
                "pid": 1,
                "tid": span.trace_id,
                "args": args,
            }
        )
    events.extend(retry_flow_events(spans))
    events.sort(
        key=lambda event: (event["tid"], event["ts"], -event.get("dur", 0.0))
    )
    return events


def write_chrome_trace(
    spans: typing.Iterable[Span], path: str | pathlib.Path
) -> int:
    """Write a ``chrome://tracing``-loadable JSON file; returns event count."""
    events = chrome_trace_events(spans)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return len(events)


def write_spans_jsonl(
    spans: typing.Iterable[Span], path: str | pathlib.Path
) -> int:
    """One span dict per line (finished spans only); returns the count."""
    count = 0
    with open(path, "w") as handle:
        for span in spans:
            if not span.finished:
                continue
            handle.write(json.dumps(span.to_dict()) + "\n")
            count += 1
    return count


def read_spans_jsonl(path: str | pathlib.Path) -> list[dict[str, typing.Any]]:
    """Read a JSONL span dump back as plain dicts (schema of Span.to_dict)."""
    required = {"trace_id", "span_id", "parent_id", "name", "phase", "start", "end", "tags"}
    records: list[dict[str, typing.Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            missing = required - set(payload)
            if missing:
                raise ValueError(f"span record missing fields: {sorted(missing)}")
            records.append(payload)
    return records
