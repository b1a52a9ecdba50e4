"""Scraper behavior: delta sampling, cadence, scoped ids, bounds."""

import pytest

from repro.sim.kernel import Simulator
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
    series = telemetry.rollups["reqs_total"]
    window = series.latest()
    # Both scrapes land in one aligned window: deltas 3 then 7.
    assert window.count == 2
    assert window.sum == 10.0
    assert window.last == 7.0


def test_gauge_scraped_as_level(telemetry):
    # Instantaneous levels are probes.
    level = {"depth": 4.0}
    telemetry.probe("depth", lambda: level["depth"])
    telemetry.scraper.scrape()
    level["depth"] = 2.0
    telemetry.scraper.scrape()
    window = telemetry.rollups["depth"].latest()
    assert window.max == 4.0
    assert window.last == 2.0


def test_probe_sampled_each_scrape(telemetry):
    state = {"v": 1.0}
    telemetry.probe("util", lambda: state["v"], host="h1")
    telemetry.scraper.scrape()
    state["v"] = 3.0
    telemetry.scraper.scrape()
    series = telemetry.rollups['util{host="h1"}']
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
    window = telemetry.rollups["latency_s"].latest()
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
    window = telemetry.rollups["latency_s"].latest()
    assert window.count == 1


def test_scope_scraped_with_labels(telemetry):
    scope = telemetry.scope("vc-1", component="statsd")
    rows = scope.counter("stats.rows")
    seen = scope.duration("call")
    scope.probe("queue", lambda: 3.0)
    idle = scope.counter("idle")
    rows.add(10.0)
    seen.observe(0.5)
    telemetry.scraper.scrape()

    assert telemetry.rollups['vc-1.stats.rows{component="statsd"}'].latest().sum == 10.0
    assert telemetry.rollups['vc-1.queue{component="statsd"}'].last_value() == 3.0
    # A duration contributes its count and seconds as counter deltas.
    assert telemetry.rollups['vc-1.call:count{component="statsd"}'].latest().sum == 1.0
    assert telemetry.rollups['vc-1.call:seconds{component="statsd"}'].latest().sum == 0.5
    # A handle joins the scrape at its first write, not before.
    assert 'vc-1.idle{component="statsd"}' not in telemetry.rollups
    idle.add()
    telemetry.scraper.scrape()
    assert telemetry.rollups['vc-1.idle{component="statsd"}'].latest().sum == 1.0


def test_scraper_runs_on_cadence(sim, telemetry):
    counter = telemetry.counter("ticks_total")

    def workload():
        for _ in range(20):
            counter.add()
            yield sim.timeout(1.0)

    def stopper():
        yield sim.timeout(20.0)
        telemetry.stop()

    sim.spawn(workload(), name="load")
    telemetry.start()
    sim.spawn(stopper(), name="stop")
    sim.run(until=30.0)
    # Scrapes at t=5,10,15,20 (cadence 5 s, none after the stop).
    assert telemetry.scraper.scrapes == 4
    series = telemetry.rollups["ticks_total"]
    assert sum(window.sum for window in series.windows()) == 20.0


def test_scraper_start_twice_rejected(telemetry):
    telemetry.start()
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
    series = telemetry.rollups["reqs_total"]
    assert telemetry.scraper.scrapes >= 900
    # 3 level-0 + 2 level-1 + open + agg — far less than one per scrape.
    windows = sum(len(series.windows(level=level)) for level in range(len(series.retention)))
    assert windows <= 3 + 2 + 2
