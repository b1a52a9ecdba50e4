"""Labeled metric families and the :class:`Telemetry` hub.

A :class:`Telemetry` object owns every live metric family for one
simulation, the probe list sampled at scrape time, the scraped roll-up
store, and the SLO monitor. Components receive it at construction and
grab *handles* once::

    self._t_calls = telemetry.counter("hostd_calls_total", host=host.name)
    ...
    self._t_calls.add()          # hot path: one bound-method call

A :class:`MetricScope` names one component's ids (``vc-1.db.writes``
under ``component="db"``); its handles join the families at their first
write, so an id a run never writes is never scraped or exported.

:data:`NULL_TELEMETRY` is the disabled twin (mirroring tracing's
``NULL_TRACER``): every family request returns the shared
:data:`NULL_METRIC` singleton and probes are dropped, so a simulation
constructed without telemetry allocates nothing per event and pays only a
no-op method call at each instrumentation point.
"""

from __future__ import annotations

import math
import typing

from repro.sim.stats import LogHistogram

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.telemetry.rollup import RollupSeries
    from repro.telemetry.slo import SloMonitor, SloRule

LabelValues = typing.Tuple[typing.Tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelValues:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_metric_id(name: str, labels: LabelValues) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class TCounter:
    """A labeled child counter: monotone, finite increments only."""

    __slots__ = ("name", "labels", "value", "_join")

    kind = "counter"

    def __init__(self, name: str, labels: LabelValues = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        # The hub a scope's handle joins at its first write (None once in).
        self._join: Telemetry | None = None

    def add(self, amount: float = 1.0) -> None:
        if not math.isfinite(amount) or amount < 0:
            raise ValueError(
                f"counter {self.name!r} increment must be finite and >= 0, got {amount!r}"
            )
        self.value += amount
        if self._join is not None:
            self._join._adopt(self)
            self._join = None


class TDuration:
    """A labeled count and running total of durations.

    Scraped as two counters, ``<name>:count`` and ``<name>:seconds``: a
    trailing window's seconds over its count is the mean duration in
    that window (triage compares recent and baseline service times so).
    """

    __slots__ = ("name", "labels", "count", "total", "_join")

    kind = "duration"

    def __init__(self, name: str, labels: LabelValues = ()) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self._join: Telemetry | None = None

    def observe(self, seconds: float) -> None:
        if not math.isfinite(seconds) or seconds < 0:
            raise ValueError(
                f"duration on {self.name!r} must be finite and >= 0, got {seconds!r}"
            )
        self.count += 1
        self.total += seconds
        if self._join is not None:
            self._join._adopt(self)
            self._join = None

    @property
    def seconds(self) -> float:
        """The mean times the count. It can differ from ``total`` in the
        last bit; the committed roll-up exports are pinned to this form."""
        return self.total / self.count * self.count if self.count else 0.0


class THistogram:
    """A labeled child histogram over fixed log buckets (mergeable)."""

    __slots__ = ("name", "labels", "hist")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelValues = ()) -> None:
        self.name = name
        self.labels = labels
        self.hist = LogHistogram(name)

    def observe(self, value: float, trace_id: int | None = None) -> None:
        """Record an observation, optionally stamping a trace-id exemplar.

        Callers pass ``trace_id`` only when tracing is live (guard on
        ``span.is_null``), so the untraced path stays allocation-free.
        """
        self.hist.record(value, exemplar=trace_id)


class NullMetric:
    """The inert metric handle: every mutation is a no-op."""

    __slots__ = ()

    def add(self, amount: float = 1.0) -> None:
        pass

    def observe(self, value: float, trace_id: int | None = None) -> None:
        pass


NULL_METRIC = NullMetric()


class MetricFamily:
    """All children of one metric name, keyed by label values."""

    __slots__ = ("name", "kind", "help", "_children")

    FACTORIES: typing.ClassVar[dict[str, type]] = {
        "counter": TCounter,
        "duration": TDuration,
        "histogram": THistogram,
    }

    def __init__(self, name: str, kind: str, help: str = "") -> None:
        if kind not in self.FACTORIES:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self._children: dict[LabelValues, typing.Any] = {}

    def labels(self, **labels: str) -> typing.Any:
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self.FACTORIES[self.kind](self.name, key)
            self._children[key] = child
        return child

    def children(self) -> list[typing.Any]:
        return list(self._children.values())


class Probe:
    """A read-only callback sampled at scrape time (gauge semantics).

    The function must only *read* simulation state — it runs inside the
    scraper and anything it mutates would break scrape neutrality.
    """

    __slots__ = ("name", "labels", "fn")

    kind = "probe"

    def __init__(self, name: str, fn: typing.Callable[[], float], labels: LabelValues = ()) -> None:
        self.name = name
        self.labels = labels
        self.fn = fn

    @property
    def value(self) -> float:
        return float(self.fn())


class MetricScope:
    """One component's metric ids: ``<prefix>.<name>`` under fixed labels.

    The component grabs its handles once, at construction; each joins
    the hub's families at its first write, so an id appears in the
    scrape from the window of its first write on.
    """

    __slots__ = ("hub", "prefix", "labels")

    def __init__(self, hub: "Telemetry", prefix: str, labels: LabelValues) -> None:
        self.hub = hub
        self.prefix = prefix
        self.labels = labels

    def counter(self, name: str) -> TCounter:
        child = TCounter(f"{self.prefix}.{name}", self.labels)
        child._join = self.hub
        return child

    def duration(self, name: str) -> TDuration:
        child = TDuration(f"{self.prefix}.{name}", self.labels)
        child._join = self.hub
        return child

    def probe(self, name: str, fn: typing.Callable[[], float]) -> None:
        self.hub.probes.append(Probe(f"{self.prefix}.{name}", fn, self.labels))


class Telemetry:
    """The live telemetry pipeline for one simulation.

    Owns metric families, probes, the scraped roll-up store, and the SLO
    monitor. ``start()`` launches the
    :class:`~repro.telemetry.scraper.Scraper` sim-process.
    """

    def __init__(
        self,
        sim: "Simulator",
        scrape_interval_s: float = 5.0,
        retention: tuple[tuple[float, int], ...] | None = None,
    ) -> None:
        from repro.telemetry.rollup import DEFAULT_RETENTION
        from repro.telemetry.scraper import Scraper
        from repro.telemetry.slo import SloMonitor

        if scrape_interval_s <= 0:
            raise ValueError("scrape_interval_s must be positive")
        self.sim = sim
        self.scrape_interval_s = scrape_interval_s
        self.retention = DEFAULT_RETENTION if retention is None else retention
        self.families: dict[str, MetricFamily] = {}
        # Bumped at every family lookup, which may add a family or a
        # child: the scraper re-walks the families only when it moved.
        self.generation = 0
        self.probes: list[Probe] = []
        self.rollups: dict[str, RollupSeries] = {}
        self.scraper = Scraper(self)
        self.monitor: "SloMonitor" = SloMonitor(self)

    # -- family construction -------------------------------------------------

    def _family(self, name: str, kind: str, help: str) -> MetricFamily:
        self.generation += 1
        family = self.families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help=help)
            self.families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        return family

    def _adopt(self, child: TCounter | TDuration) -> None:
        """Add a scope's handle to its family (at its first write)."""
        self._family(child.name, child.kind, "")._children[child.labels] = child

    def counter(self, name: str, help: str = "", **labels: str) -> TCounter:
        return self._family(name, "counter", help).labels(**labels)

    def histogram(self, name: str, help: str = "", **labels: str) -> THistogram:
        return self._family(name, "histogram", help).labels(**labels)

    def probe(
        self, name: str, fn: typing.Callable[[], float], help: str = "", **labels: str
    ) -> Probe:
        probe = Probe(name, fn, _label_key(labels))
        self.probes.append(probe)
        return probe

    def scope(self, prefix: str, **labels: str) -> MetricScope:
        return MetricScope(self, prefix, _label_key(labels))

    # -- scrape store --------------------------------------------------------

    def rollup(self, metric_id: str, kind: str) -> RollupSeries:
        series = self.rollups.get(metric_id)
        if series is None:
            from repro.telemetry.rollup import RollupSeries

            series = RollupSeries(metric_id, kind=kind, retention=self.retention)
            self.rollups[metric_id] = series
        return series

    def series_matching(self, prefix: str) -> dict[str, RollupSeries]:
        return {
            metric_id: series
            for metric_id, series in self.rollups.items()
            if metric_id.startswith(prefix)
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Telemetry":
        """Begin scraping on the configured cadence; returns self."""
        self.scraper.start()
        return self

    def stop(self) -> None:
        self.scraper.stop()

    # -- SLO surface ---------------------------------------------------------

    def add_rule(self, rule: "SloRule") -> None:
        self.monitor.add(rule)


class NullTelemetry:
    """Telemetry disabled: every request yields the inert singleton.

    Shared module-wide (:data:`NULL_TELEMETRY`), so the disabled path
    allocates nothing — handles are the one NULL_METRIC, probe
    registrations are dropped on the floor.
    """

    def counter(self, name: str, help: str = "", **labels: str) -> NullMetric:
        return NULL_METRIC

    def histogram(self, name: str, help: str = "", **labels: str) -> NullMetric:
        return NULL_METRIC

    def probe(self, name: str, fn, help: str = "", **labels: str) -> None:
        return None

    def scope(self, prefix: str, **labels: str) -> NullScope:
        return NULL_SCOPE

    def start(self) -> "NullTelemetry":
        return self

    def stop(self) -> None:
        pass


NULL_TELEMETRY = NullTelemetry()


class NullFlightRecorder:
    """Recorder off: nothing is ever recorded.

    The off switch for :class:`~repro.telemetry.recorder.FlightRecorder`
    lives with the other telemetry twins, so a run without a recorder
    never loads the recorder module.
    """

    is_null = True
    bundles: tuple = ()


NULL_RECORDER = NullFlightRecorder()


class NullScope:
    """The disabled scope: inert handles, dropped probes."""

    __slots__ = ()

    hub = NULL_TELEMETRY

    def counter(self, name: str) -> NullMetric:
        return NULL_METRIC

    def duration(self, name: str) -> NullMetric:
        return NULL_METRIC

    def probe(self, name: str, fn) -> None:
        return None


NULL_SCOPE = NullScope()
