"""Scraper behavior: delta sampling, cadence, watched registries, bounds."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.stats import MetricsRegistry
from repro.telemetry.metrics import Telemetry


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def telemetry(sim):
    return Telemetry(sim, scrape_interval_s=5.0)


def test_counter_scraped_as_delta(telemetry):
    counter = telemetry.counter("reqs_total")
    counter.add(3.0)
    telemetry.scraper.scrape()
    counter.add(7.0)
    telemetry.scraper.scrape()
    series = telemetry.series("reqs_total")
    window = series.latest()
    # Both scrapes land in one aligned window: deltas 3 then 7.
    assert window.count == 2
    assert window.sum == 10.0
    assert window.last == 7.0


def test_gauge_scraped_as_level(telemetry):
    gauge = telemetry.gauge("depth")
    gauge.set(4.0)
    telemetry.scraper.scrape()
    gauge.set(2.0)
    telemetry.scraper.scrape()
    window = telemetry.series("depth").latest()
    assert window.max == 4.0
    assert window.last == 2.0


def test_probe_sampled_each_scrape(telemetry):
    state = {"v": 1.0}
    telemetry.probe("util", lambda: state["v"], host="h1")
    telemetry.scraper.scrape()
    state["v"] = 3.0
    telemetry.scraper.scrape()
    series = telemetry.series("util", host="h1")
    assert series is not None
    assert series.latest().count == 2
    assert series.last_value() == 3.0


def test_histogram_scraped_as_bucket_delta(telemetry):
    hist = telemetry.histogram("latency_s")
    hist.observe(1.0)
    hist.observe(2.0)
    telemetry.scraper.scrape()
    hist.observe(4.0)
    telemetry.scraper.scrape()
    window = telemetry.series("latency_s").latest()
    assert window.count == 3
    assert window.sum == pytest.approx(7.0)
    assert window.hist.count == 3
    # The merged window sketch equals the cumulative one bucket-for-bucket.
    assert window.hist._buckets == hist.hist._buckets


def test_unchanged_histogram_not_resampled(telemetry):
    hist = telemetry.histogram("latency_s")
    hist.observe(1.0)
    telemetry.scraper.scrape()
    telemetry.scraper.scrape()  # no new observations
    window = telemetry.series("latency_s").latest()
    assert window.count == 1


def test_watched_registry_scraped_with_labels(sim, telemetry):
    registry = MetricsRegistry(sim, prefix="vc-1")
    rows = registry.counter("stats.rows")
    queue = registry.gauge("queue")
    seen = registry.latency("call")
    telemetry.watch_registry(registry, component="statsd")
    rows.add(10.0)
    queue.set(3.0)
    seen.record(0.5)
    telemetry.scraper.scrape()

    assert telemetry.series("vc-1.stats.rows", component="statsd").latest().sum == 10.0
    assert telemetry.series("vc-1.queue", component="statsd").last_value() == 3.0
    # Latency recorders contribute their count as a counter delta.
    assert telemetry.series("vc-1.call:count", component="statsd").latest().sum == 1.0
    # The registry itself is only read.
    assert rows.value == 10.0


def test_scraper_runs_on_cadence(sim, telemetry):
    counter = telemetry.counter("ticks_total")

    def workload():
        for _ in range(20):
            counter.add()
            yield sim.timeout(1.0)

    sim.spawn(workload(), name="load")
    telemetry.start(until=20.0)
    sim.run(until=30.0)
    # Scrapes at t=5,10,15,20 (cadence 5 s, stop after until).
    assert telemetry.scraper.scrapes == 4
    series = telemetry.series("ticks_total")
    assert sum(window.sum for window in series.windows()) == 20.0


def test_scraper_start_twice_rejected(telemetry):
    telemetry.start(until=1.0)
    with pytest.raises(RuntimeError):
        telemetry.start()


def test_rollup_store_memory_bounded(sim):
    telemetry = Telemetry(
        sim, scrape_interval_s=5.0, retention=((10.0, 3), (50.0, 2))
    )
    counter = telemetry.counter("reqs_total")

    def workload():
        while True:
            counter.add()
            yield sim.timeout(1.0)

    sim.spawn(workload(), name="load")
    telemetry.start()
    sim.run(until=5000.0)
    series = telemetry.series("reqs_total")
    assert telemetry.scraper.scrapes >= 900
    # 3 level-0 + 2 level-1 + open + agg — far less than one per scrape.
    windows = sum(len(series.windows(level=level)) for level in range(len(series.retention)))
    assert windows <= 3 + 2 + 2
