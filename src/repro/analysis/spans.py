"""Span-tree analysis: phase attribution, queue/service split, critical path.

Input is a span tree (a root :class:`~repro.tracing.span.Span` whose
tracer indexes its descendants). Three analyses:

- :func:`phase_attribution` — **exclusive** (self) time per phase tag:
  each span contributes its duration minus the union of its children's
  intervals, so nested instrumentation never double-counts. The root's
  own self time is scheduling gaps between phases — reported under the
  root's phase (``task``), which the exhibits fold into "other".
- :func:`queueing_service_split` — wait-tagged spans (resource-pool and
  dispatch waits) vs everything else: how much of an operation was spent
  *waiting for* the control plane rather than being served by it.
- :func:`critical_path` — the sequence of span segments that determined
  the root's end time, found by walking backwards from the root's end
  through the last-finishing child at each level. Segment lengths sum to
  exactly the root's duration (the critical-path length can never exceed
  the operation's latency).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.tracing.span import DATA_PHASES, Span
from repro.tracing.tracer import Tracer

# Phases counted as control-plane time in exhibit summaries.
CONTROL_PHASES = frozenset(
    {"task", "queue", "placement", "db", "agent", "retry", "cpu", "lock", "request"}
)


def _interval_union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    covered = 0.0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    covered += current_end - current_start
    return covered


def _self_time(span: Span, children: typing.Iterable[Span]) -> float:
    """``span``'s duration minus the union of its finished children's
    intervals (``children`` in open order)."""
    if not span.finished:
        return 0.0
    intervals = [
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
        if child.finished and child.end > span.start and child.start < span.end
    ]
    return max(0.0, span.duration - _interval_union(intervals))


def exclusive_time(tracer: Tracer, span: Span) -> float:
    """Span duration minus the union of its children's intervals."""
    return _self_time(span, tracer.children(span))


def _subtree_self_times(root: Span) -> typing.Iterator[tuple[Span, float]]:
    """Each span of ``root``'s subtree, preorder, with its exclusive time.

    One child index serves the whole tree, so the walk is linear in it.
    """
    kids = root.tracer.child_index(root.trace_id)
    stack = [root]
    while stack:
        span = stack.pop()
        children = kids.get(span.span_id, ())
        yield span, _self_time(span, children)
        stack.extend(reversed(children))


def phase_attribution(root: Span) -> dict[str, float]:
    """Exclusive seconds per phase tag over ``root``'s subtree."""
    if root.is_null:
        return {}
    totals: dict[str, float] = {}
    for span, self_time in _subtree_self_times(root):
        if self_time > 0.0:
            totals[span.phase] = totals.get(span.phase, 0.0) + self_time
    return totals


def aggregate_phase_attribution(roots: typing.Iterable[Span]) -> dict[str, float]:
    """Summed :func:`phase_attribution` over many span trees."""
    totals: dict[str, float] = {}
    for root in roots:
        for phase, seconds in phase_attribution(root).items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    return totals


def control_plane_share(attribution: dict[str, float]) -> float:
    """Fraction of attributed time on control-plane phases."""
    control = sum(s for p, s in attribution.items() if p not in DATA_PHASES)
    total = sum(attribution.values())
    return control / total if total > 0 else 0.0


def queueing_service_split(root: Span) -> dict[str, float]:
    """Seconds spent waiting vs being served, over ``root``'s subtree.

    Wait spans are marked with a ``wait`` tag by the instrumentation
    (dispatch-queue waits, CPU/DB/agent pool waits, copy-slot waits,
    retry backoff). Exclusive time is used on both
    sides, so the two buckets sum to the attributed total.
    """
    if root.is_null:
        return {"queueing": 0.0, "service": 0.0}
    queueing = service = 0.0
    for span, self_time in _subtree_self_times(root):
        if span.tags.get("wait"):
            queueing += self_time
        else:
            service += self_time
    return {"queueing": queueing, "service": service}


@dataclasses.dataclass(frozen=True)
class CriticalSegment:
    """One stretch of the critical path, attributed to one span."""

    span: Span
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def critical_path(root: Span) -> list[CriticalSegment]:
    """Segments that determined ``root``'s end time, in time order.

    Walk backwards from the root's end: the last-finishing child before
    the cursor owns the path up to its end; gaps between children belong
    to the parent (its self time was the blocker). Recurses into each
    owning child. Segment durations sum to the root's duration exactly.
    """
    if root.is_null or not root.finished:
        return []
    kids = root.tracer.child_index(root.trace_id)

    def walk(span: Span, cutoff: float) -> list[CriticalSegment]:
        segments: list[CriticalSegment] = []
        cursor = min(cutoff, span.end)
        children = [
            child
            for child in kids.get(span.span_id, ())
            if child.finished and child.start < cursor and child.end > span.start
        ]
        while cursor > span.start:
            active = [child for child in children if child.start < cursor]
            if not active:
                segments.append(CriticalSegment(span, span.start, cursor))
                break
            owner = max(active, key=lambda child: (min(child.end, cursor), child.start))
            owner_end = min(owner.end, cursor)
            if owner_end < cursor:
                segments.append(CriticalSegment(span, owner_end, cursor))
            segments.extend(walk(owner, owner_end))
            cursor = max(span.start, min(owner.start, cursor))
            children = [child for child in children if child is not owner]
        return segments

    segments = walk(root, root.end)
    segments.reverse()
    return segments


def roots_in_window(tracer: Tracer, start_s: float, end_s: float) -> list[Span]:
    """Finished root spans overlapping ``[start_s, end_s]``, in start order.

    The triage engine asks this around an alert's firing time; overlap
    (not containment) keeps long-running operations that *straddle* the
    window visible, since those are usually the interesting ones.
    """
    return sorted(
        (
            root
            for root in tracer.roots()
            if root.finished and root.end > start_s and root.start < end_s
        ),
        key=lambda root: (root.start, root.span_id),
    )


def window_phase_attribution(
    tracer: Tracer, start_s: float, end_s: float
) -> dict[str, float]:
    """Exclusive seconds per phase over roots active in a time window.

    Each root's attribution is weighted by the fraction of the root's
    interval inside the window — an approximation (phases are not spread
    uniformly across an operation), but it keeps work that merely
    straddles the window from dominating it.
    """
    if end_s <= start_s:
        return {}
    totals: dict[str, float] = {}
    for root in roots_in_window(tracer, start_s, end_s):
        overlap = min(root.end, end_s) - max(root.start, start_s)
        weight = overlap / root.duration if root.duration > 0 else 1.0
        for phase, seconds in phase_attribution(root).items():
            totals[phase] = totals.get(phase, 0.0) + seconds * weight
    return totals


def critical_path_phases(segments: typing.Sequence[CriticalSegment]) -> dict[str, float]:
    """Critical-path seconds per phase tag (the 'what to fix first' view)."""
    totals: dict[str, float] = {}
    for segment in segments:
        totals[segment.span.phase] = totals.get(segment.span.phase, 0.0) + segment.duration
    return totals
