"""The scraper: a sim-process that snapshots metrics on a cadence.

Each tick it reads every telemetry family and every probe, and lands one
sample per metric in that metric's
:class:`~repro.telemetry.rollup.RollupSeries`:

- counters (and a duration's count and seconds) contribute the *delta*
  since the previous scrape, so window sums read as rates;
- probes contribute their instantaneous level;
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

from repro.sim.stats import LogHistogram
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


# What a family entry reads from its child at each scrape.
_COUNTER = "counter"
_HISTOGRAM = "histogram"
_DURATION_COUNT = ":count"
_DURATION_SECONDS = ":seconds"


class _HistogramCursor:
    """Last-seen cumulative state of one histogram, for delta scrapes."""

    __slots__ = ("buckets", "zeros", "count", "sum")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.zeros = 0
        self.count = 0
        self.sum = 0.0


class Scraper:
    """Snapshots every family and probe on a cadence into roll-up series."""

    def __init__(self, telemetry: "Telemetry") -> None:
        self.telemetry = telemetry
        self.scrapes = 0
        self.started = False
        self._until: float | None = None
        self._last_counter: dict[str, float] = {}
        self._hist_cursor: dict[str, _HistogramCursor] = {}
        # Family child, probe, or (duration child, suffix) -> its binding;
        # a duration has a count and a seconds one.
        self._bindings: dict[typing.Hashable, _Binding] = {}
        # What each scrape samples, in family then probe order: (what to
        # read, child, binding) per family entry, (probe, binding) per
        # probe. Families are re-walked when the hub's generation moves;
        # probes are only ever appended, so new ones are bound on sight.
        self._family_entries: list[tuple[str, typing.Any, _Binding]] = []
        self._generation = -1
        self._probe_entries: list[tuple[typing.Any, _Binding]] = []

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
        telemetry = self.telemetry
        now = telemetry.sim.now
        if self._generation != telemetry.generation:
            self._bind_families()
        probes = telemetry.probes
        bound = len(self._probe_entries)
        if bound < len(probes):
            for probe in probes[bound:]:
                binding = self._bind(probe, probe.name, probe.labels, "gauge")
                self._probe_entries.append((probe, binding))
        last_counter = self._last_counter
        for read, child, binding in self._family_entries:
            if read is _HISTOGRAM:
                self._sample_histogram(binding, child.hist, now)
                continue
            if read is _COUNTER:
                value = child.value
            elif read is _DURATION_COUNT:
                value = float(child.count)
            else:
                value = child.seconds
            metric_id = binding.metric_id
            last = last_counter.get(metric_id, 0.0)
            last_counter[metric_id] = value
            series = binding.series
            if series is None:
                series = self._series(binding)
            series.record(now, value - last)
        for probe, binding in self._probe_entries:
            value = float(probe.fn())
            series = binding.series
            if series is None:
                series = self._series(binding)
            series.record(now, value)
        self.scrapes += 1
        telemetry.monitor.evaluate(now)

    def _bind_families(self) -> None:
        """Walk every family child, binding the ones not seen before."""
        bind = self._bind
        entries: list[tuple[str, typing.Any, _Binding]] = []
        for family in self.telemetry.families.values():
            kind = family.kind
            for child in family.children():
                if kind == "counter":
                    entries.append(
                        (_COUNTER, child, bind(child, child.name, child.labels, kind))
                    )
                elif kind == "histogram":
                    entries.append(
                        (_HISTOGRAM, child, bind(child, child.name, child.labels, kind))
                    )
                else:
                    for read in (_DURATION_COUNT, _DURATION_SECONDS):
                        binding = bind(
                            (child, read), child.name, child.labels, "counter", read
                        )
                        entries.append((read, child, binding))
        self._family_entries = entries
        self._generation = self.telemetry.generation

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
