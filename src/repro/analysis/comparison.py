"""Side-by-side trace comparison: the output of a what-if replay."""

from __future__ import annotations

import typing

from repro.analysis.latency import latency_by_type
from repro.analysis.report import render_table
from repro.traces.records import TraceRecord

#: Fewest records of an op type, per trace, for a p50 worth comparing.
MIN_SAMPLES = 3


def compare_traces(
    baseline: typing.Sequence[TraceRecord],
    variant: typing.Sequence[TraceRecord],
    baseline_label: str = "baseline",
    variant_label: str = "variant",
) -> tuple[list[str], list[list[str]]]:
    """Per-op-type p50 latency comparison, biggest improvement first.

    An op type needs :data:`MIN_SAMPLES` records on each side to be compared.

    Returns (headers, rows); render with
    :func:`repro.analysis.report.render_table`.
    """
    base_stats = latency_by_type(baseline)
    var_stats = latency_by_type(variant)
    rows = []
    for op in sorted(set(base_stats) & set(var_stats)):
        base = base_stats[op]
        var = var_stats[op]
        if base["count"] < MIN_SAMPLES or var["count"] < MIN_SAMPLES:
            continue
        speedup = base["p50"] / var["p50"] if var["p50"] > 0 else float("inf")
        rows.append(
            [
                op,
                base["count"],
                f"{base['p50']:.2f}",
                f"{var['p50']:.2f}",
                f"{speedup:.2f}x",
            ]
        )
    rows.sort(key=lambda row: -float(row[4].rstrip("x")))
    headers = [
        "operation",
        "n",
        f"{baseline_label} p50 (s)",
        f"{variant_label} p50 (s)",
        "speedup",
    ]
    return headers, rows


def comparison_report(
    baseline: typing.Sequence[TraceRecord],
    variant: typing.Sequence[TraceRecord],
    baseline_label: str = "baseline",
    variant_label: str = "variant",
) -> str:
    """The rendered comparison table plus aggregate lines."""
    headers, rows = compare_traces(
        baseline, variant, baseline_label=baseline_label, variant_label=variant_label
    )
    table = render_table(headers, rows, title="What-if comparison")
    base_mean = sum(r.latency for r in baseline) / max(1, len(baseline))
    var_mean = sum(r.latency for r in variant) / max(1, len(variant))
    summary = (
        f"\noverall mean latency: {baseline_label} {base_mean:.2f}s -> "
        f"{variant_label} {var_mean:.2f}s"
    )
    return table + summary
