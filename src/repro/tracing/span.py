"""Span primitives: causally-linked timed intervals on simulated time.

A :class:`Span` is one named interval of simulated time with a **phase
tag** from the control-plane taxonomy below and free-form tags. Three
integer fields give its identity: ``trace_id`` (shared by every span of
one tree), ``span_id`` (unique within its tracer) and ``parent_id``
(``None`` for a root). They are plain slots on the span, so opening a
span allocates the span and nothing else beyond its tags dict.

Spans form trees: one tree per traced unit of work (a management task or
a director request). The tree is the raw material for
per-phase latency attribution, queueing-vs-service decomposition, and
critical-path extraction (``repro.analysis.spans``).

Tracing must cost nothing when disabled, so the module also defines
:data:`NULL_SPAN`, a shared inert singleton: its ``child`` returns itself
and ``finish`` does nothing. Components accept a span argument defaulting
to :data:`NULL_SPAN` and guard their instrumentation on ``span.is_null``,
so an untraced run allocates no span objects at all.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.tracing.tracer import Tracer

# -- the phase taxonomy -------------------------------------------------------
#
# Every span carries one of these tags; the analysis pipeline aggregates
# attributed time by tag. ``queue`` marks time spent waiting for a
# control-plane resource (dispatch slot, CPU worker, DB connection, agent
# slot); the others mark the service the wait was for.

PHASE_TASK = "task"            # task/attempt framing (self time = scheduling gaps)
PHASE_QUEUE = "queue"          # waiting on a control-plane resource
PHASE_PLACEMENT = "placement"  # placement scoring + its inventory reads
PHASE_DB = "db"                # database statements
PHASE_AGENT = "agent"          # host-agent (hostd) calls
PHASE_COPY = "copy"            # data-plane byte moving (incl. copy-slot waits)
PHASE_RETRY = "retry"          # backoff between attempts / re-placements
PHASE_CPU = "cpu"              # management-server CPU phases
PHASE_LOCK = "lock"            # inventory lock acquisition
PHASE_REQUEST = "request"      # director request / per-VM framing
PHASE_RECOVERY = "recovery"    # post-crash journal replay + reconciliation
PHASE_BUS = "bus"              # message-bus publish/deliver/redeliver hops

PHASES = (
    PHASE_TASK,
    PHASE_QUEUE,
    PHASE_PLACEMENT,
    PHASE_DB,
    PHASE_AGENT,
    PHASE_COPY,
    PHASE_RETRY,
    PHASE_CPU,
    PHASE_LOCK,
    PHASE_REQUEST,
    PHASE_RECOVERY,
    PHASE_BUS,
)

# Phases that are data-plane work; everything else is control-plane.
DATA_PHASES = frozenset({PHASE_COPY})


_PHASE_SET = frozenset(PHASES)


class Span:
    """One named, phase-tagged interval of simulated time.

    ``trace_id`` names the tree the span belongs to, ``span_id`` the span
    itself, and ``parent_id`` its parent (``None`` for a root).
    """

    __slots__ = (
        "tracer", "name", "phase", "trace_id", "span_id", "parent_id",
        "start", "end", "tags",
    )

    is_null: typing.ClassVar[bool] = False

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        phase: str,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        tags: dict[str, typing.Any] | None = None,
    ) -> None:
        if phase not in _PHASE_SET:
            raise ValueError(f"unknown phase {phase!r}; known: {PHASES}")
        self.tracer = tracer
        self.name = name
        self.phase = phase
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = tracer.sim.now
        self.end: float | None = None
        self.tags: dict[str, typing.Any] = tags or {}

    # -- lifecycle -----------------------------------------------------------

    def child(
        self,
        name: str,
        phase: str = PHASE_TASK,
        tags: dict[str, typing.Any] | None = None,
    ) -> "Span":
        """Open a child span at the current simulated time."""
        tracer = self.tracer
        tracer._next_span_id += 1
        span = Span(
            tracer, name, phase, self.trace_id, tracer._next_span_id, self.span_id, tags
        )
        tracer._store(span)
        return span

    def finish(self, error: str | None = None) -> "Span":
        """Close the span at the current simulated time.

        Idempotent: the first finish wins (cleanup paths may race normal
        completion when generators unwind). An ``error`` marks the span's
        work as failed without hiding its duration. Only a root's finish
        reaches the tracer's finish hook: that is what seals a tree.
        """
        if self.end is None:
            self.end = self.tracer.sim.now
            if error is not None:
                self.tags["error"] = error
            if self.parent_id is None:
                self.tracer._finished(self)
        return self

    def annotate(self, key: str, value: typing.Any) -> None:
        self.tags[key] = value

    # -- accessors -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise RuntimeError(f"span {self.name!r} not finished")
        return self.end - self.start

    @property
    def ok(self) -> bool:
        return "error" not in self.tags

    def to_dict(self) -> dict[str, typing.Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "phase": self.phase,
            "start": self.start,
            "end": self.end,
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:
        window = f"{self.start:.3f}..{'open' if self.end is None else f'{self.end:.3f}'}"
        return f"<Span {self.name!r} phase={self.phase} {window}>"


class _NullSpan:
    """The inert span: every operation is a no-op, ``child`` returns self.

    A single shared instance (:data:`NULL_SPAN`) stands in for "tracing
    off" everywhere, so instrumented code needs no conditionals beyond an
    optional ``is_null`` fast-path guard.
    """

    __slots__ = ()

    is_null: typing.ClassVar[bool] = True

    def child(self, name: str, phase: str = PHASE_TASK, tags=None) -> "_NullSpan":
        return self

    def finish(self, error: str | None = None) -> "_NullSpan":
        return self

    def annotate(self, key: str, value: typing.Any) -> None:
        pass


NULL_SPAN = _NullSpan()
