"""A ``top``-style text dashboard rendered from the scraped roll-up store.

Pure formatting over :class:`~repro.telemetry.metrics.Telemetry` state —
no simulation access, so it can render mid-run (from a scrape hook) or
after the fact. Shown by ``python -m repro metrics``.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.metrics import Telemetry
    from repro.telemetry.rollup import RollupSeries

SPARK_TICKS = "▁▂▃▄▅▆▇█"
BREAKER_NAMES = {0: "closed", 1: "half-open", 2: "OPEN"}
#: Characters in one sparkline, and in one utilization bar's body.
SPARK_WIDTH = 24
BAR_WIDTH = 20


def sparkline(values: typing.Sequence[float]) -> str:
    """Compress a value series into a fixed-width unicode sparkline."""
    if not values:
        return " " * SPARK_WIDTH
    values = list(values)[-SPARK_WIDTH:]
    low = min(values)
    high = max(values)
    span = high - low
    ticks = []
    for value in values:
        if span <= 0:
            ticks.append(SPARK_TICKS[0])
        else:
            index = int((value - low) / span * (len(SPARK_TICKS) - 1))
            ticks.append(SPARK_TICKS[index])
    return "".join(ticks).rjust(SPARK_WIDTH)


def bar(fraction: float) -> str:
    """A bounded utilization bar: ``[#####---------------]``."""
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * BAR_WIDTH))
    return "[" + "#" * filled + "-" * (BAR_WIDTH - filled) + "]"


def _series_values(series: "RollupSeries", field: str = "mean") -> list[float]:
    return [value for _, value in series.series(level=0, field=field)]


def _fmt_row(label: str, body: str) -> str:
    return f"  {label:<46} {body}"


def render_dashboard(telemetry: "Telemetry", triage=None) -> str:
    """Render the current telemetry state as a text dashboard.

    Pass the rig's :class:`~repro.triage.engine.TriageEngine` as
    ``triage`` to append the incident drill-down: one block per verdict
    with its ranked hypotheses and evidence chains.
    """
    lines = [f"== repro top @ t={telemetry.sim.now:.1f}s "
             f"(scrapes={telemetry.scraper.scrapes}, "
             f"series={len(telemetry.rollups)}) =="]

    def section(header: str) -> None:
        lines.append("")
        lines.append(header)

    # Utilization gauges/probes (values in [0, 1]).
    util = {
        metric_id: series
        for metric_id, series in sorted(telemetry.rollups.items())
        if "utilization" in metric_id
    }
    if util:
        section("-- utilization --")
        for metric_id, series in util.items():
            level = series.last_value()
            lines.append(_fmt_row(metric_id, f"{bar(level)} {level * 100:5.1f}%"))

    # Queue depths as sparklines of per-window means.
    depths = {
        metric_id: series
        for metric_id, series in sorted(telemetry.rollups.items())
        if "queue_depth" in metric_id or "pool_queue" in metric_id
    }
    if depths:
        section("-- queue depth --")
        for metric_id, series in depths.items():
            values = _series_values(series)
            lines.append(
                _fmt_row(metric_id, f"{sparkline(values)} now={series.last_value():.0f}")
            )

    # Breaker states (probe encodes closed=0 / half-open=1 / open=2).
    breakers = {
        metric_id: series
        for metric_id, series in sorted(telemetry.rollups.items())
        if "breaker_state" in metric_id
    }
    if breakers:
        section("-- circuit breakers --")
        for metric_id, series in breakers.items():
            state = BREAKER_NAMES.get(int(series.last_value()), "?")
            values = _series_values(series, field="max")
            lines.append(_fmt_row(metric_id, f"{sparkline(values)} {state}"))

    # Retry-budget burn: remaining tokens over time.
    budgets = {
        metric_id: series
        for metric_id, series in sorted(telemetry.rollups.items())
        if "retry_budget" in metric_id and "denied" not in metric_id
    }
    if budgets:
        section("-- retry budget --")
        for metric_id, series in budgets.items():
            values = _series_values(series)
            lines.append(
                _fmt_row(metric_id, f"{sparkline(values)} tokens={series.last_value():.1f}")
            )

    # Throughput-ish counters: show per-window rates.
    rates = {
        metric_id: series
        for metric_id, series in sorted(telemetry.rollups.items())
        if series.kind == "counter"
        and metric_id.split("{", 1)[0].endswith("_total")
    }
    if rates:
        section("-- rates (per window) --")
        for metric_id, series in rates.items():
            values = [
                window.rate for window in series.windows(level=0, include_open=True)
            ]
            latest = values[-1] if values else 0.0
            lines.append(
                _fmt_row(metric_id, f"{sparkline(values)} {latest:8.2f}/s")
            )

    # Alerts.
    active = telemetry.monitor.active_alerts() if hasattr(telemetry, "monitor") else []
    section(f"-- alerts ({len(active)} active) --")
    if telemetry.monitor.timeline:
        lines.extend("  " + line for line in telemetry.monitor.render_timeline())
    else:
        lines.append("  (none fired)")

    # Incident triage drill-down: ranked root-cause verdicts per alert
    # burst, with the evidence each hypothesis rests on.
    if triage is not None and not getattr(triage, "is_null", False):
        verdicts = list(triage.verdicts)
        section(f"-- triage ({len(verdicts)} verdicts) --")
        if verdicts:
            for verdict in verdicts:
                lines.extend("  " + line for line in verdict.render(evidence=True))
        else:
            lines.append("  (no alerts fired, no verdicts)")
    return "\n".join(lines) + "\n"
