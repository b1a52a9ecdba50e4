"""Live telemetry pipeline: metric families, scraper, roll-ups, SLO alerts.

The observability layer for the reproduced control plane, modeled on the
paper's observation that the management server's statistics pipeline is
itself a major database workload. Four pieces:

- :mod:`~repro.telemetry.metrics` — labeled families (counter / duration
  / log-bucket histogram), read-only probes, per-component scopes, and
  the :class:`Telemetry` hub; :data:`NULL_TELEMETRY` keeps the disabled
  path allocation-free.
- :mod:`~repro.telemetry.scraper` — a sim-process snapshotting every
  family and probe on a cadence into bounded roll-up time-series.
- :mod:`~repro.telemetry.rollup` — vCenter-style multi-level windowed
  roll-ups (min/mean/max/p99 per window, fold-up retention).
- :mod:`~repro.telemetry.slo` — multi-window burn-rate SLO rules and the
  alert timeline; :mod:`~repro.telemetry.export` and
  :mod:`~repro.telemetry.dashboard` render the results.
- :mod:`~repro.telemetry.recorder` — the incident flight recorder:
  alert- and crash-triggered self-contained JSON bundles tying alerts,
  roll-up windows, exemplar-linked span trees, bus stats, and the triage
  verdict together; :data:`NULL_RECORDER` is the zero-cost off switch.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.telemetry.dashboard": ("render_dashboard", "sparkline"),
        "repro.telemetry.export": (
            "alerts_jsonl",
            "prometheus_text",
            "read_incident_bundle",
            "read_incident_bundles",
            "rollups_jsonl",
            "write_alerts",
            "write_incident_bundle",
            "write_incident_bundles",
            "write_prometheus",
            "write_rollups",
        ),
        "repro.telemetry.metrics": (
            "NULL_METRIC",
            "NULL_TELEMETRY",
            "MetricFamily",
            "NullMetric",
            "NullTelemetry",
            "Probe",
            "Telemetry",
            "format_metric_id",
        ),
        "repro.telemetry.recorder": (
            "NULL_RECORDER",
            "FlightRecorder",
            "IncidentBundle",
            "NullFlightRecorder",
        ),
        "repro.telemetry.rollup": ("DEFAULT_RETENTION", "RollupSeries", "Window"),
        "repro.telemetry.scraper": ("Scraper",),
        "repro.telemetry.slo": (
            "DEFAULT_BURN_WINDOWS",
            "Alert",
            "AlertEvent",
            "AvailabilityRule",
            "BurnWindow",
            "LatencyRule",
            "RatioRule",
            "SloMonitor",
            "SloRule",
        ),
    },
)

__all__ = [
    "Alert",
    "AlertEvent",
    "AvailabilityRule",
    "BurnWindow",
    "DEFAULT_BURN_WINDOWS",
    "DEFAULT_RETENTION",
    "FlightRecorder",
    "IncidentBundle",
    "LatencyRule",
    "MetricFamily",
    "NULL_METRIC",
    "NULL_RECORDER",
    "NULL_TELEMETRY",
    "NullFlightRecorder",
    "NullMetric",
    "NullTelemetry",
    "Probe",
    "RatioRule",
    "RollupSeries",
    "Scraper",
    "SloMonitor",
    "SloRule",
    "Telemetry",
    "Window",
    "alerts_jsonl",
    "format_metric_id",
    "prometheus_text",
    "read_incident_bundle",
    "read_incident_bundles",
    "render_dashboard",
    "rollups_jsonl",
    "sparkline",
    "write_alerts",
    "write_incident_bundle",
    "write_incident_bundles",
    "write_prometheus",
    "write_rollups",
]
