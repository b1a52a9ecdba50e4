"""The tracer: span factory and registry on one simulator's clock.

One :class:`Tracer` serves one :class:`~repro.sim.kernel.Simulator`. It
hands out spans (roots via :meth:`start_trace`, children via
``span.child``), records every span it created, and answers structural
queries (children, subtrees) that the analysis layer builds on.

:class:`NullTracer` is the disabled twin: every request returns
:data:`~repro.tracing.span.NULL_SPAN` and nothing is recorded, so a
simulation constructed without tracing pays only a no-op method call at
each instrumentation point.
"""

from __future__ import annotations

import typing

from repro.tracing.span import NULL_SPAN, PHASE_TASK, Span

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Tracer:
    """Creates, clocks, and indexes spans for one simulation."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._next_trace_id = 0
        self._next_span_id = 0
        self._init_store()

    def _init_store(self) -> None:
        """Set up the span store (subclasses swap in bounded retention)."""
        self.spans: list[Span] = []
        # Each trace's spans in open order: what the structural queries read.
        self._traces: dict[int, list[Span]] = {}

    # -- span construction ---------------------------------------------------

    def start_trace(
        self,
        name: str,
        phase: str = PHASE_TASK,
        tags: dict[str, typing.Any] | None = None,
    ) -> Span:
        """Open a new root span (a fresh trace id)."""
        self._next_trace_id += 1
        self._next_span_id += 1
        span = Span(self, name, phase, self._next_trace_id, self._next_span_id, None, tags)
        self._store(span)
        return span

    def start_span(
        self,
        name: str,
        phase: str = PHASE_TASK,
        parent: Span | None = None,
        tags: dict[str, typing.Any] | None = None,
    ) -> Span:
        """Open a span; with a parent it joins the parent's trace."""
        if parent is None or parent.is_null:
            return self.start_trace(name, phase=phase, tags=tags)
        return parent.child(name, phase, tags)

    def _store(self, span: Span) -> None:
        self.spans.append(span)
        self._traces.setdefault(span.trace_id, []).append(span)

    def _finished(self, span: Span) -> None:
        """Finish hook, called by :meth:`Span.finish` when a root first closes.

        The base tracer retains everything, so nothing happens here;
        :class:`~repro.tracing.sampling.SampledTracer` overrides it to
        seal finished trace trees through the tail sampler.
        """

    # -- structural queries --------------------------------------------------

    def _trace_spans(self, trace_id: int) -> typing.Sequence[Span]:
        """Every span of one trace this tracer still holds, in open order."""
        return self._traces.get(trace_id, ())

    def children(self, span: Span) -> list[Span]:
        """``span``'s direct children, in open order."""
        span_id = span.span_id
        return [s for s in self._trace_spans(span.trace_id) if s.parent_id == span_id]

    def child_index(self, trace_id: int) -> dict[int, list[Span]]:
        """Span id -> its direct children in open order, over one trace.

        Built in one pass over the trace: analyses that visit every span
        of a tree read children from here rather than calling
        :meth:`children` per span, which would be quadratic in the tree.
        """
        kids: dict[int, list[Span]] = {}
        for span in self._trace_spans(trace_id):
            if span.parent_id is not None:
                kids.setdefault(span.parent_id, []).append(span)
        return kids

    def subtree(self, root: Span) -> list[Span]:
        """``root`` and all its descendants, preorder."""
        kids = self.child_index(root.trace_id)
        out: list[Span] = []
        stack = [root]
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(reversed(kids.get(span.span_id, ())))
        return out

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.parent_id is None]

    def open_spans(self) -> list[Span]:
        return [span for span in self.spans if not span.finished]


class NullTracer:
    """Tracing disabled: every span request yields the inert singleton."""

    def start_trace(self, name: str, phase: str = PHASE_TASK, tags=None):
        return NULL_SPAN

    def start_span(self, name: str, phase: str = PHASE_TASK, parent=None, tags=None):
        return NULL_SPAN

    def roots(self) -> list:
        return []


NULL_TRACER = NullTracer()


def plane_seconds_from_span(root: Span, plane: str) -> float:
    """Sum of successful operation-phase span durations on one plane.

    Operation phases (:func:`repro.operations.base.phase`) stamp their
    spans with a ``plane`` tag; this sums them over ``root``'s subtree.
    It is the span-side accounting that
    :meth:`repro.traces.records.TraceRecord.from_task` cross-checks
    against the task's own plane totals. Error-marked spans are excluded
    to mirror those totals (a failed phase body adds nothing).
    """
    tracer = root.tracer
    total = 0.0
    for span in tracer.subtree(root):
        if span.finished and span.ok and span.tags.get("plane") == plane:
            total += span.duration
    return total
