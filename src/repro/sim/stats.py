"""Metrics primitives: time-weighted gauges, latency recorders, sketches.

Components keep the values product code reads as plain attributes (or
one of these recorders); what only the scrape reads goes through
:mod:`repro.telemetry.metrics` handles.
"""

from __future__ import annotations

import math
import types
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Gauge:
    """A piecewise-constant level with time-weighted statistics.

    Tracks queue depths and utilization. ``set``/``add`` record the level at
    the current simulated time; :meth:`time_average` integrates it.
    """

    __slots__ = ("sim", "name", "value", "maximum", "_samples")

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.value = 0.0
        self.maximum = 0.0
        self._samples: list[tuple[float, float]] = [(sim.now, 0.0)]

    def set(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"gauge {self.name!r} level must be finite, got {value!r}")
        self.value = value
        self.maximum = max(self.maximum, value)
        self._samples.append((self.sim.now, value))

    def add(self, delta: float) -> None:
        if not math.isfinite(delta):
            raise ValueError(f"gauge {self.name!r} delta must be finite, got {delta!r}")
        self.set(self.value + delta)

    def time_average(self) -> float:
        """Time-weighted mean level over [0, now], integrated from the samples."""
        now = self.sim.now
        if now <= 0:
            return self.value
        area = 0.0
        prev_time, prev_value = self._samples[0]
        for time, value in self._samples[1:]:
            if time > prev_time:
                area += prev_value * (time - prev_time)
            prev_time, prev_value = time, value
        if now > prev_time:
            area += prev_value * (now - prev_time)
        return area / now

    def series(self) -> list[tuple[float, float]]:
        """The raw (time, level) step series."""
        return list(self._samples)


class LatencyRecorder:
    """A bag of duration samples with percentile queries.

    ``record`` appends; the samples are sorted on the first percentile,
    CDF or samples read after a write. The sort is stable, so equal
    samples (``0.0`` and ``-0.0`` too) keep their recording order, as an
    insertion sort would. ``count`` and ``mean`` never sort.
    """

    __slots__ = ("name", "_samples", "_sum", "_unsorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: list[float] = []
        self._sum = 0.0
        self._unsorted = False

    def record(self, duration: float) -> None:
        # NaN compares false against everything, so a plain `< 0` check
        # would let it through — and one NaN silently corrupts the sort
        # every later percentile depends on.
        if not math.isfinite(duration):
            raise ValueError(f"duration on {self.name!r} must be finite, got {duration!r}")
        if duration < 0:
            raise ValueError(f"negative duration on {self.name!r}: {duration!r}")
        self._samples.append(duration)
        self._unsorted = True
        self._sum += duration

    def _sorted(self) -> list[float]:
        if self._unsorted:
            self._samples.sort()
            self._unsorted = False
        return self._samples

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        return self._sum / len(self._samples) if self._samples else 0.0

    def percentile(self, fraction: float) -> float:
        """Linear-interpolated percentile; ``fraction`` in [0, 1]."""
        if not self._samples:
            return 0.0
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside [0, 1]")
        ordered = self._sorted()
        position = fraction * (len(ordered) - 1)
        lower = math.floor(position)
        upper = math.ceil(position)
        low_value = ordered[lower]
        high_value = ordered[upper]
        if lower == upper or low_value == high_value:
            return low_value
        weight = position - lower
        # Clamp: interpolation can overshoot by an ulp.
        return min(high_value, max(low_value, low_value * (1 - weight) + high_value * weight))

    def cdf(self, points: int = 50) -> list[tuple[float, float]]:
        """(value, cumulative fraction) pairs suitable for plotting."""
        if not self._samples:
            return []
        ordered = self._sorted()
        n = len(ordered)
        step = max(1, n // points)
        out = [
            (ordered[index], (index + 1) / n)
            for index in range(0, n, step)
        ]
        if out[-1][1] < 1.0:
            out.append((ordered[-1], 1.0))
        return out


#: Growth factor of :class:`LogHistogram` buckets — four buckets per
#: octave, so any quantile estimate is within ~9% relative error.
LOG_HISTOGRAM_BASE = 2.0 ** 0.25
_LOG_BASE = math.log(LOG_HISTOGRAM_BASE)


class LogHistogram:
    """Fixed-log-bucket histogram: a mergeable latency sketch.

    Bucket ``i`` covers ``[base**i, base**(i+1))`` for ``base`` =
    :data:`LOG_HISTOGRAM_BASE`; recording keeps only a sparse
    ``{bucket index: count}`` map plus exact count/sum/min/max, so memory
    is bounded by the dynamic range (a few dozen buckets for second-scale
    latencies) rather than the sample count. Two histograms merge exactly
    (bucket-wise addition), which is what lets scrape-window rollups
    collapse into coarser windows without revisiting raw samples.

    Buckets may optionally carry an **exemplar** — the trace id (plus the
    exact value) of one recent observation that landed in the bucket.
    Exemplars ride along through :meth:`merge` (the incoming histogram's
    exemplar wins, being newer), so a rolled-up tail bucket can still name
    a concrete trace to open. Allocation is lazy: histograms that never
    see an exemplar pay one None slot.
    """

    __slots__ = (
        "name", "zeros", "_buckets", "_count", "_sum", "_min", "_max",
        "exemplars",
    )

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.zeros = 0
        self._buckets: dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        # bucket index -> (trace_id, observed value); None until first use.
        self.exemplars: dict[int, tuple[int, float]] | None = None

    def _index(self, value: float) -> int:
        index = math.floor(math.log(value) / _LOG_BASE)
        # Repair float drift so base**index <= value < base**(index+1).
        try:
            if LOG_HISTOGRAM_BASE ** index > value:
                index -= 1
            elif LOG_HISTOGRAM_BASE ** (index + 1) <= value:
                index += 1
        except OverflowError:
            pass  # the edge is past the largest float: above any value
        return index

    def _edge(self, index: int) -> float:
        """``base ** index``, infinite past the largest float."""
        try:
            return LOG_HISTOGRAM_BASE ** index
        except OverflowError:
            return math.inf

    def record(
        self, value: float, count: int = 1, exemplar: int | None = None
    ) -> None:
        if not math.isfinite(value):
            raise ValueError(f"histogram {self.name!r} value must be finite, got {value!r}")
        if value < 0:
            raise ValueError(f"histogram {self.name!r} value must be >= 0, got {value!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        if value == 0.0:
            self.zeros += count
        else:
            index = self._index(value)
            self._buckets[index] = self._buckets.get(index, 0) + count
            if exemplar is not None:
                if self.exemplars is None:
                    self.exemplars = {}
                self.exemplars[index] = (exemplar, value)
        self._count += count
        self._sum += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into this histogram (in place); returns self."""
        self.zeros += other.zeros
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        if other.exemplars:
            if self.exemplars is None:
                self.exemplars = {}
            # The incoming histogram is the newer window: its exemplars win.
            self.exemplars.update(other.exemplars)
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def bucket_bounds(self, index: int) -> tuple[float, float]:
        """The [low, high) value range of bucket ``index``."""
        return (self._edge(index), self._edge(index + 1))

    def quantile_bounds(self, fraction: float) -> tuple[float, float]:
        """Bounds containing the true ``fraction`` sample quantile.

        The exact min/max tighten the edge buckets, so the interval never
        extends past observed extremes.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside [0, 1]")
        if self._count == 0:
            return (0.0, 0.0)
        # Rank of the quantile sample under linear ordering (1-based).
        rank = max(1, math.ceil(fraction * self._count))
        if rank <= self.zeros:
            return (0.0, 0.0)
        seen = self.zeros
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                low, high = self.bucket_bounds(index)
                return (max(low, self._min), min(high, self._max))
        return (self._max, self._max)  # pragma: no cover - rank <= count always hits

    def quantile(self, fraction: float) -> float:
        """Point estimate: the upper bound of the quantile's bucket."""
        return self.quantile_bounds(fraction)[1]

    def count_at_or_above(self, threshold: float) -> int:
        """Samples with value >= ``threshold`` (bucket-resolution upper bound).

        Any bucket whose range straddles the threshold is counted entirely,
        so the estimate errs toward "bad" — the conservative direction for
        SLO accounting.
        """
        if threshold <= 0:
            return self._count
        if self._count == 0 or threshold > self._max:
            return 0
        cut = self._index(threshold)
        return sum(count for index, count in self._buckets.items() if index >= cut)

    def exemplar_entries(self) -> list[tuple[float, int, float]]:
        """Sorted (bucket upper bound, trace id, observed value) triples."""
        if not self.exemplars:
            return []
        return [
            (self._edge(index + 1), trace_id, value)
            for index, (trace_id, value) in sorted(self.exemplars.items())
        ]

    def buckets(self) -> list[tuple[float, int]]:
        """Sorted (bucket upper bound, count) pairs, zeros bucket first."""
        out: list[tuple[float, int]] = []
        if self.zeros:
            out.append((0.0, self.zeros))
        out.extend(
            (self._edge(index + 1), self._buckets[index])
            for index in sorted(self._buckets)
        )
        return out


class TimeSeries:
    """Values binned into fixed-width time buckets (for rate plots)."""

    __slots__ = ("name", "bin_width", "_bins")

    def __init__(self, name: str, bin_width: float) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.name = name
        self.bin_width = bin_width
        self._bins: dict[int, float] = {}

    def record(self, time: float, amount: float = 1.0) -> None:
        if not math.isfinite(time):
            raise ValueError(f"timeseries {self.name!r} time must be finite, got {time!r}")
        if not math.isfinite(amount):
            raise ValueError(
                f"timeseries {self.name!r} amount must be finite, got {amount!r}"
            )
        index = int(time // self.bin_width)
        self._bins[index] = self._bins.get(index, 0.0) + amount

    def bins(self) -> list[tuple[float, float]]:
        """Sorted (bin start time, total) pairs, gaps filled with zero."""
        if not self._bins:
            return []
        lo = min(self._bins)
        hi = max(self._bins)
        return [
            (index * self.bin_width, self._bins.get(index, 0.0))
            for index in range(lo, hi + 1)
        ]


class CounterView:
    """Read-only ``counter(name).value`` over an owner's count attributes.

    ``perfbench/workloads.py`` reads ``copy_engine.metrics.counter(...)``
    and ``director.metrics.counter(...)``; this view keeps those reads
    working until that benchmark reads the attributes.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: object) -> None:
        self._owner = owner

    def counter(self, name: str) -> types.SimpleNamespace:
        return types.SimpleNamespace(value=float(getattr(self._owner, name)))
