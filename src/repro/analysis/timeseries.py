"""Time-series analysis: arrival rates (R-F1, R-F7)."""

from __future__ import annotations

import typing

from repro.sim.stats import TimeSeries
from repro.traces.records import TraceRecord


def arrival_rate_series(
    records: typing.Iterable[TraceRecord], bin_s: float = 300.0
) -> list[tuple[float, float]]:
    """Operations submitted per bin: (bin start, ops/second in bin)."""
    series = TimeSeries("arrivals", bin_width=bin_s)
    for record in records:
        series.record(record.submitted_at)
    return [(start, count / bin_s) for start, count in series.bins()]


def peak_to_trough(series: list[tuple[float, float]]) -> float:
    """Ratio of the max to min non-empty bin (diurnality measure)."""
    values = [value for _, value in series if value > 0]
    if not values:
        return 0.0
    return max(values) / min(values)
