"""Causal, span-based tracing for the management control plane.

The subsystem answers the question the whole-operation
:class:`~repro.traces.records.TraceRecord` cannot: *which control-plane
phase* — gateway admission, placement, task-queue wait, host-agent
execution, DB writes, storage copy — dominates an operation's
latency as concurrency rises.

Pieces:

- :mod:`repro.tracing.span` — the :class:`Span` primitive on simulated
  time (its identity is three integer fields on the span itself:
  ``trace_id``, ``span_id`` and ``parent_id``), the phase taxonomy, and
  the zero-cost :data:`NULL_SPAN`;
- :mod:`repro.tracing.tracer` — the :class:`Tracer` registry (and its
  disabled twin :data:`NULL_TRACER`);
- :mod:`repro.tracing.sampling` — tail-based retention:
  :class:`SampledTracer` keeps finished trace trees inside a fixed span
  budget via keep-policies (errors, retries, slow, normal reservoir);
- :mod:`repro.tracing.export` — Chrome trace-event JSON and JSONL dumps,
  with flow events linking retry attempts;
- :mod:`repro.analysis.spans` — per-phase attribution,
  queueing-vs-service decomposition, and critical-path extraction over
  span trees.

See ``docs/tracing.md`` for the instrumentation map and how to open an
export in ``chrome://tracing``.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.tracing.export": (
            "chrome_trace_events",
            "read_spans_jsonl",
            "retry_flow_events",
            "write_chrome_trace",
            "write_spans_jsonl",
        ),
        "repro.tracing.sampling": (
            "KEEP_CLASSES",
            "RetainedTree",
            "RetentionPolicy",
            "SampledTracer",
            "TailSampler",
        ),
        "repro.tracing.span": (
            "DATA_PHASES",
            "NULL_SPAN",
            "PHASE_ADMISSION",
            "PHASE_AGENT",
            "PHASE_BUS",
            "PHASE_COPY",
            "PHASE_CPU",
            "PHASE_DB",
            "PHASE_LOCK",
            "PHASE_PLACEMENT",
            "PHASE_QUEUE",
            "PHASE_RECOVERY",
            "PHASE_REQUEST",
            "PHASE_RETRY",
            "PHASE_TASK",
            "PHASES",
            "Span",
        ),
        "repro.tracing.tracer": ("NULL_TRACER", "NullTracer", "Tracer", "plane_seconds_from_span"),
    },
)

__all__ = [
    "DATA_PHASES",
    "KEEP_CLASSES",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "PHASE_ADMISSION",
    "PHASE_AGENT",
    "PHASE_BUS",
    "PHASE_COPY",
    "PHASE_CPU",
    "PHASE_DB",
    "PHASE_LOCK",
    "PHASE_PLACEMENT",
    "PHASE_QUEUE",
    "PHASE_RECOVERY",
    "PHASE_REQUEST",
    "PHASE_RETRY",
    "PHASE_TASK",
    "PHASES",
    "RetainedTree",
    "RetentionPolicy",
    "SampledTracer",
    "Span",
    "TailSampler",
    "Tracer",
    "chrome_trace_events",
    "plane_seconds_from_span",
    "read_spans_jsonl",
    "retry_flow_events",
    "write_chrome_trace",
    "write_spans_jsonl",
]
