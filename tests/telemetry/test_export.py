"""Exporters and the text dashboard: format checks over a tiny run."""

import json

import pytest

from repro.sim.kernel import Simulator
from repro.sim.stats import MetricsRegistry
from repro.telemetry.dashboard import bar, render_dashboard, sparkline
from repro.telemetry.export import (
    prometheus_text,
    rollups_jsonl,
    write_alerts,
    write_prometheus,
    write_rollups,
)
from repro.telemetry.metrics import Telemetry


@pytest.fixture
def telemetry():
    sim = Simulator()
    t = Telemetry(sim, scrape_interval_s=5.0)
    counter = t.counter("reqs_total", help="requests", host="h1")
    gauge = t.gauge("cpu_utilization")
    hist = t.histogram("latency_s")
    t.probe("queue_depth", lambda: 7.0)
    registry = MetricsRegistry(sim, prefix="vc")
    registry.counter("rows").add(12.0)
    registry.latency("call").record(0.25)
    t.watch_registry(registry, component="statsd")
    counter.add(5.0)
    gauge.set(0.4)
    for value in (0.1, 0.2, 0.8):
        hist.observe(value)
    t.scraper.scrape()
    return t


class TestPrometheus:
    def test_families_and_probes_rendered(self, telemetry):
        text = prometheus_text(telemetry)
        assert "# HELP reqs_total requests" in text
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{host="h1"} 5' in text
        assert "cpu_utilization 0.4" in text
        assert "queue_depth 7" in text

    def test_histogram_is_cumulative_with_inf_bucket(self, telemetry):
        lines = prometheus_text(telemetry).splitlines()
        buckets = [line for line in lines if line.startswith("latency_s_bucket")]
        assert buckets[-1].startswith('latency_s_bucket{le="+Inf"} 3')
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)  # cumulative
        assert "latency_s_count 3" in lines

    def test_watched_registry_rendered(self, telemetry):
        text = prometheus_text(telemetry)
        assert 'vc_rows{component="statsd"} 12' in text
        # Latency recorders render as summaries.
        assert 'vc_call_seconds{component="statsd",quantile="0.99"}' in text
        assert 'vc_call_seconds_count{component="statsd"} 1' in text


class TestJsonl:
    def test_rollup_lines_parse_and_cover_series(self, telemetry):
        rows = [json.loads(line) for line in rollups_jsonl(telemetry)]
        metrics = {row["metric"] for row in rows}
        assert 'reqs_total{host="h1"}' in metrics
        assert "cpu_utilization" in metrics
        counter_row = next(r for r in rows if r["metric"].startswith("reqs_total"))
        assert counter_row["kind"] == "counter"
        assert "rate" in counter_row
        assert counter_row["sum"] == 5.0

    def test_writers_create_files(self, telemetry, tmp_path):
        prom = write_prometheus(telemetry, tmp_path / "out" / "metrics.prom")
        rollups = write_rollups(telemetry, tmp_path / "rollups.jsonl")
        alerts = write_alerts(telemetry, tmp_path / "alerts.jsonl")
        assert prom.read_text().endswith("\n")
        assert all(json.loads(line) for line in rollups.read_text().splitlines())
        assert alerts.exists()  # empty timeline -> empty file


class TestDashboard:
    def test_sparkline_and_bar_shapes(self):
        assert len(sparkline([1.0, 2.0, 3.0], width=10)) == 10
        assert sparkline([], width=5) == " " * 5
        assert bar(0.5, width=10) == "[#####-----]"
        assert bar(2.0, width=4) == "[####]"

    def test_dashboard_sections(self, telemetry):
        text = render_dashboard(telemetry)
        assert "== repro top @ t=0.0s" in text
        assert "-- utilization --" in text
        assert "cpu_utilization" in text
        assert "-- queue depth --" in text
        assert "-- rates (per window) --" in text
        assert "(none fired)" in text

    def test_dashboard_federation_section(self):
        sim = Simulator()
        t = Telemetry(sim, scrape_interval_s=5.0)
        counters = {"vc-1": 4.0, "vc-2": 0.0}
        for shard in counters:
            t.probe("federation_steals", lambda s=shard: counters[s], shard=shard)
            t.probe("federation_spills", lambda s=shard: 2.0 if s == "vc-2" else 0.0,
                    shard=shard)
            t.probe("federation_reroutes", lambda: 1.0, shard=shard)
            t.probe("federation_remote_completions", lambda s=shard: counters[s],
                    shard=shard)
        t.scraper.scrape()
        text = render_dashboard(t)
        assert "-- federation (per shard) --" in text
        lines = [line for line in text.splitlines() if line.strip().startswith("vc-")]
        assert len(lines) == 2
        assert "steals=4" in lines[0] and "spills=0" in lines[0]
        assert "spills=2" in lines[1] and "remote_completions=0" in lines[1]

    def test_dashboard_no_federation_section_without_probes(self, telemetry):
        assert "-- federation" not in render_dashboard(telemetry)
