"""The characterization pipeline: what the paper *did* to its logs.

Consumes :class:`~repro.traces.records.TraceRecord` lists (synthetic here,
but schema-compatible with parsed production logs) and produces the
paper's analyses: operation mixes, latency distributions, arrival-rate
time series, and control-vs-data plane attribution.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.analysis.bottleneck": (
            "phase_breakdown",
            "plane_breakdown",
            "plane_breakdown_by_type",
        ),
        "repro.analysis.comparison": ("compare_traces", "comparison_report"),
        "repro.analysis.latency": ("latency_by_type", "latency_cdf", "latency_stats"),
        "repro.analysis.mix": ("mix_comparison", "operation_counts", "operation_mix"),
        "repro.analysis.report": ("render_series", "render_table"),
        "repro.analysis.spans": (
            "aggregate_phase_attribution",
            "control_plane_share",
            "critical_path",
            "critical_path_phases",
            "phase_attribution",
            "queueing_service_split",
        ),
        "repro.analysis.timeseries": ("arrival_rate_series",),
    },
)

__all__ = [
    "aggregate_phase_attribution",
    "control_plane_share",
    "critical_path",
    "critical_path_phases",
    "phase_attribution",
    "queueing_service_split",
    "arrival_rate_series",
    "compare_traces",
    "comparison_report",
    "latency_by_type",
    "latency_cdf",
    "latency_stats",
    "mix_comparison",
    "operation_counts",
    "operation_mix",
    "phase_breakdown",
    "plane_breakdown",
    "plane_breakdown_by_type",
    "render_series",
    "render_table",
]
