"""The scraper: a sim-process that snapshots metrics on a cadence.

Each tick it reads every telemetry family, every probe, and every watched
legacy :class:`~repro.sim.stats.MetricsRegistry`, and lands one sample per
metric in that metric's :class:`~repro.telemetry.rollup.RollupSeries`:

- counters (and latency-recorder counts) contribute the *delta* since the
  previous scrape, so window sums read as rates;
- gauges and probes contribute their instantaneous level;
- log-bucket histograms contribute the bucket-wise delta, merged into the
  window's sketch.

Scrape neutrality: the scraper only *reads* model state — it requests no
resources, draws no randomness, and injects no delays beyond its own
timer. Its timer events interleave with the workload's on the shared
sequence counter, but relative order among workload events is preserved,
so task schedules are identical with telemetry on or off (pinned by a
differential test). With telemetry off no scraper exists at all and the
simulation is untouched.
"""

from __future__ import annotations

import typing

from repro.sim.stats import Counter, Gauge, LatencyRecorder, LogHistogram
from repro.telemetry.metrics import format_metric_id

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.metrics import Telemetry
    from repro.telemetry.rollup import RollupSeries


class _Binding:
    """One scraped metric's formatted id and, once created, its series.

    The series is created on the first sample, not when the binding is,
    so a histogram that has seen no observation still has no series.
    """

    __slots__ = ("metric_id", "kind", "series")

    def __init__(self, metric_id: str, kind: str) -> None:
        self.metric_id = metric_id
        self.kind = kind
        self.series: "RollupSeries | None" = None


class _HistogramCursor:
    """Last-seen cumulative state of one histogram, for delta scrapes."""

    __slots__ = ("buckets", "zeros", "count", "sum")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.zeros = 0
        self.count = 0
        self.sum = 0.0


class Scraper:
    """Snapshots every registry on a cadence into roll-up series."""

    def __init__(self, telemetry: "Telemetry") -> None:
        self.telemetry = telemetry
        self.scrapes = 0
        self.started = False
        self._until: float | None = None
        self._last_counter: dict[str, float] = {}
        self._hist_cursor: dict[str, _HistogramCursor] = {}
        # Family child, probe, or (registry metric, labels[, suffix]) ->
        # its binding; a latency recorder has a count and a seconds one.
        self._bindings: dict[typing.Hashable, _Binding] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self, until: float | None = None) -> None:
        if self.started:
            raise RuntimeError("scraper already started")
        self.started = True
        self._until = until
        self.telemetry.sim.spawn(self._loop(), name="telemetry:scraper")

    def stop(self) -> None:
        self._until = self.telemetry.sim.now

    def _loop(self) -> typing.Generator:
        sim = self.telemetry.sim
        interval = self.telemetry.scrape_interval_s
        while True:
            yield sim.timeout(interval)
            if self._until is not None and sim.now > self._until:
                return
            self.scrape()

    # -- one scrape ----------------------------------------------------------

    def scrape(self) -> None:
        now = self.telemetry.sim.now
        bind = self._bind
        for family in self.telemetry.families.values():
            kind = family.kind
            for child in family.children():
                binding = bind(child, child.name, child.labels, kind)
                if kind == "counter":
                    self._sample_counter(binding, child.value, now)
                elif kind == "gauge":
                    self._sample_gauge(binding, child.value, now)
                else:
                    self._sample_histogram(binding, child.hist, now)
        for probe in self.telemetry.probes:
            self._sample_gauge(bind(probe, probe.name, probe.labels, "gauge"), probe.value, now)
        for registry, labels in self.telemetry.watched:
            for key, metric in registry.all().items():
                if isinstance(metric, Counter):
                    binding = bind((metric, labels), key, labels, "counter")
                    self._sample_counter(binding, metric.value, now)
                elif isinstance(metric, Gauge):
                    binding = bind((metric, labels), key, labels, "gauge")
                    self._sample_gauge(binding, metric.value, now)
                elif isinstance(metric, LatencyRecorder):
                    # Count + total seconds as counters: a trailing
                    # window's seconds-sum over count-sum is the mean
                    # latency in that window (triage leans on this to
                    # compare recent vs baseline service times).
                    count = bind((metric, labels, ":count"), key, labels, "counter", ":count")
                    self._sample_counter(count, float(metric.count), now)
                    seconds = bind((metric, labels, ":seconds"), key, labels, "counter", ":seconds")
                    self._sample_counter(seconds, float(metric.mean * metric.count), now)
                elif isinstance(metric, LogHistogram):
                    binding = bind((metric, labels), key, labels, "histogram")
                    self._sample_histogram(binding, metric, now)
                # Fixed-bin Histogram / TimeSeries keep their own shape;
                # they are post-run analysis structures, not scrape targets.
        self.scrapes += 1
        self.telemetry.monitor.evaluate(now)

    def _bind(
        self, source: typing.Hashable, name: str, labels: tuple, kind: str, suffix: str = ""
    ) -> _Binding:
        """The binding of one scraped source, formatting its id on first use."""
        binding = self._bindings.get(source)
        if binding is None:
            binding = self._bindings[source] = _Binding(
                format_metric_id(name + suffix, labels), kind
            )
        return binding

    def _series(self, binding: _Binding) -> "RollupSeries":
        series = binding.series
        if series is None:
            series = binding.series = self.telemetry.rollup(binding.metric_id, binding.kind)
        return series

    def _sample_counter(self, binding: _Binding, value: float, now: float) -> None:
        metric_id = binding.metric_id
        last = self._last_counter.get(metric_id, 0.0)
        self._last_counter[metric_id] = value
        self._series(binding).record(now, value - last)

    def _sample_gauge(self, binding: _Binding, value: float, now: float) -> None:
        self._series(binding).record(now, value)

    def _sample_histogram(self, binding: _Binding, hist: LogHistogram, now: float) -> None:
        metric_id = binding.metric_id
        cursor = self._hist_cursor.get(metric_id)
        if cursor is None:
            cursor = self._hist_cursor[metric_id] = _HistogramCursor()
        if hist.count == cursor.count:
            return
        delta = LogHistogram(metric_id, base=hist.base)
        delta.zeros = hist.zeros - cursor.zeros
        for index, count in hist._buckets.items():
            previous = cursor.buckets.get(index, 0)
            if count > previous:
                delta._buckets[index] = count - previous
        delta._count = hist.count - cursor.count
        delta._sum = hist.total - cursor.sum
        if hist.exemplars:
            # Carry exemplars only for buckets that grew this window, so a
            # window's exemplar really is an observation from that window.
            for index in delta._buckets:
                entry = hist.exemplars.get(index)
                if entry is not None:
                    if delta.exemplars is None:
                        delta.exemplars = {}
                    delta.exemplars[index] = entry
        # Exact min/max of just-this-delta are unknowable from cumulative
        # state; bound them by the delta's own bucket range.
        if delta._buckets:
            low = min(delta._buckets)
            high = max(delta._buckets)
            delta._min = hist.base ** low
            delta._max = hist.base ** (high + 1)
        elif delta.zeros:
            delta._min = 0.0
            delta._max = 0.0
        cursor.buckets = dict(hist._buckets)
        cursor.zeros = hist.zeros
        cursor.count = hist.count
        cursor.sum = hist.total
        self._series(binding).absorb_histogram(now, delta)
