"""Windowed roll-up series: bounded-memory time-series of scraped samples.

Modeled on vCenter's stats level/rollup hierarchy: fine-grained windows
(level 0) are kept for a bounded span, then folded into coarser windows
(level 1, 2, ...) instead of growing without bound — the same shape the
paper's management server applies to the host statistics it collects.
Every window keeps exact count/sum/min/max plus a mergeable
:class:`~repro.sim.stats.LogHistogram`, so a roll-up of roll-ups equals
the roll-up of the raw samples (exactly for count/sum/min/max, within one
log bucket for quantiles) — the invariance the property tests pin down.
"""

from __future__ import annotations

import math
import typing

from repro.sim.stats import LogHistogram

#: Default retention: (window seconds, windows kept) per level. Each
#: level's window must be an integer multiple of the previous level's.
#: 60 x 60 s (one hour fine), 48 x 5 min (four hours), 48 x 30 min (a day).
DEFAULT_RETENTION: tuple[tuple[float, int], ...] = (
    (60.0, 60),
    (300.0, 48),
    (1800.0, 48),
)


class Window:
    """One roll-up window: exact scalar stats + a quantile sketch."""

    __slots__ = ("start", "width", "count", "sum", "min", "max", "last", "hist")

    def __init__(self, start: float, width: float) -> None:
        self.start = start
        self.width = width
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.last = 0.0
        self.hist = LogHistogram()

    @property
    def end(self) -> float:
        return self.start + self.width

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def rate(self) -> float:
        """Sum per second — the window rate for counter-delta series."""
        return self.sum / self.width if self.width > 0 else 0.0

    def record(self, value: float) -> None:
        _check_sample(value)
        self.record_all((value,))

    def record_all(self, values: typing.Sequence[float]) -> None:
        """Land checked samples in order, as one :meth:`record` each would.

        One loop updates the scalars and the sketch. Sums accumulate in
        sample order, and a value equal to the one before it reuses that
        value's bucket index.
        """
        hist = self.hist
        buckets = hist._buckets
        total, hist_total = self.sum, hist._sum
        low, high, hist_low, hist_high = self.min, self.max, hist._min, hist._max
        zeros = 0
        previous = index = None
        for value in values:
            total += value
            hist_total += value
            # Comparisons, not min()/max(): same result, no builtin call.
            if value < low:
                low = value
            if value > high:
                high = value
            if value < hist_low:
                hist_low = value
            if value > hist_high:
                hist_high = value
            if value == 0.0:
                zeros += 1
            else:
                if value != previous:
                    index = hist._index(value)
                    previous = value
                buckets[index] = buckets.get(index, 0) + 1
        self.count += len(values)
        self.sum, self.min, self.max, self.last = total, low, high, values[-1]
        hist.zeros += zeros
        hist._count += len(values)
        hist._sum, hist._min, hist._max = hist_total, hist_low, hist_high

    def absorb_histogram(self, delta: LogHistogram) -> None:
        """Fold a pre-aggregated histogram delta (scraped cumulative diff)."""
        if delta.count == 0:
            return
        self.count += delta.count
        self.sum += delta.total
        self.min = min(self.min, delta.min)
        self.max = max(self.max, delta.max)
        self.last = delta.max
        self.hist.merge(delta)

    def add(self, other: "Window") -> None:
        """Fold a later window's samples into this one; the span stays."""
        if other.count:
            self.count += other.count
            self.sum += other.sum
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
            self.last = other.last
            self.hist.merge(other.hist)

    def merge(self, other: "Window") -> None:
        """Fold a later window into this one (coarser-level roll-up)."""
        self.add(other)
        self.width = max(self.width, other.end - self.start)

    def p(self, fraction: float) -> float:
        """Quantile estimate over the window's samples (bucket upper bound)."""
        return self.hist.quantile(fraction)

    def summary(self) -> dict[str, float]:
        empty = self.count == 0
        return {
            "start": self.start,
            "width": self.width,
            "count": self.count,
            "sum": self.sum,
            "min": 0.0 if empty else self.min,
            "mean": self.mean,
            "max": 0.0 if empty else self.max,
            "p50": self.p(0.50),
            "p99": self.p(0.99),
        }


def _check_sample(value: float) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"roll-up sample must be finite and >= 0, got {value!r}")


#: Horizons one series keeps a closed-window merge for. The rules and
#: triage query a few fixed horizons; a caller passing a new horizon each
#: time resets the cache instead of growing it.
_MAX_CACHED_HORIZONS = 8


class RollupSeries:
    """A bounded multi-level roll-up of one metric's scraped samples.

    ``record`` lands samples in the open level-0 window (windows are
    aligned to ``start % width == 0``). When level ``i`` exceeds its
    retention it folds its oldest windows into level ``i+1``; the top
    level evicts. Total memory is therefore fixed by the retention spec,
    independent of run length — the strict bound the scraper relies on.

    A recorded sample waits in a pending list; the open window takes the
    whole list in one :meth:`Window.record_all` when it closes or when a
    reader looks at it. ``trailing`` keeps, per horizon, the merge of the
    closed windows it last covered, so a query merges only what changed.
    """

    __slots__ = (
        "name", "kind", "retention", "_levels", "_open", "_aggs",
        "_pending", "_time", "_trailing",
    )

    def __init__(
        self,
        name: str,
        kind: str = "gauge",
        retention: tuple[tuple[float, int], ...] = DEFAULT_RETENTION,
    ) -> None:
        if not retention:
            raise ValueError("retention must name at least one level")
        previous = None
        for window_s, keep in retention:
            if window_s <= 0 or keep < 1:
                raise ValueError(f"bad retention level ({window_s}, {keep})")
            if previous is not None:
                ratio = window_s / previous
                if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
                    raise ValueError(
                        "each level's window must be an integer multiple "
                        f"of the previous ({previous} -> {window_s})"
                    )
            previous = window_s
        self.name = name
        self.kind = kind
        self.retention = retention
        # Closed windows per level, oldest first.
        self._levels: list[list[Window]] = [[] for _ in retention]
        # The open (still-filling) level-0 window.
        self._open: Window | None = None
        # Per-level aggregation windows being assembled for the next level.
        self._aggs: list[Window | None] = [None] * len(retention)
        # Samples recorded into the open window but not yet folded into it.
        self._pending: list[float] = []
        # The last sample time, known to fall in the open window.
        self._time: float | None = None
        # Horizon -> (first, last closed window covered, their merge).
        self._trailing: dict[float, tuple[Window, Window, Window]] = {}

    # -- recording -----------------------------------------------------------

    def _window_for(self, time: float) -> Window:
        width = self.retention[0][0]
        start = math.floor(time / width) * width
        open_window = self._open
        if open_window is None:
            self._open = open_window = Window(start, width)
        elif start > open_window.start:
            self._close(open_window)
            self._open = open_window = Window(start, width)
        elif start < open_window.start:
            raise ValueError(
                f"sample at {time} predates open window {open_window.start}"
            )
        self._time = time
        return open_window

    def record(self, time: float, value: float) -> None:
        """Land one scalar sample (gauge level or counter delta)."""
        if time != self._time:
            self._window_for(time)
        _check_sample(value)
        self._pending.append(value)

    def absorb_histogram(self, time: float, delta: LogHistogram) -> None:
        """Land one scraped histogram delta."""
        window = self._window_for(time)
        self._fold()
        window.absorb_histogram(delta)

    def _fold(self) -> None:
        """Land the pending samples in the open window."""
        pending = self._pending
        if pending:
            self._open.record_all(pending)
            self._pending = []

    def _close(self, window: Window) -> None:
        self._fold()
        self._push(0, window)

    def _push(self, level: int, window: Window) -> None:
        windows = self._levels[level]
        windows.append(window)
        keep = self.retention[level][1]
        while len(windows) > keep:
            oldest = windows.pop(0)
            self._fold_up(level, oldest)

    def _fold_up(self, level: int, window: Window) -> None:
        if level + 1 >= len(self.retention):
            return  # top level: evict
        width = self.retention[level + 1][0]
        start = math.floor(window.start / width) * width
        agg = self._aggs[level + 1]
        if agg is not None and agg.start != start:
            self._push(level + 1, agg)
            agg = None
        if agg is None:
            agg = Window(start, width)
            self._aggs[level + 1] = agg
        agg.merge(window)

    # -- queries -------------------------------------------------------------

    def windows(self, level: int = 0, include_open: bool = True) -> list[Window]:
        """Windows at one level, oldest first (open window last)."""
        self._fold()
        out = list(self._levels[level])
        if level > 0 and self._aggs[level] is not None:
            out.append(self._aggs[level])
        if level == 0 and include_open and self._open is not None:
            out.append(self._open)
        return out

    def latest(self) -> Window | None:
        self._fold()
        if self._open is not None:
            return self._open
        return self._levels[0][-1] if self._levels[0] else None

    def last_value(self) -> float:
        window = self.latest()
        return window.last if window is not None else 0.0

    def trailing(self, seconds: float, now: float) -> Window:
        """Merged roll-up of all level-0 windows overlapping [now-s, now].

        This is the roll-up-of-roll-ups path: the result is identical (to
        within one log bucket on quantiles) to rolling up the raw samples.
        Windows merge oldest first, the closed ones through the horizon's
        cached merge, so every sum and extreme is the same as merging
        them one by one.
        """
        self._fold()
        cutoff = now - seconds
        merged = Window(cutoff, seconds)
        # Closed level-0 windows are in time order and all as wide, so
        # the ones overlapping the horizon are one run: [first, last).
        closed = self._levels[0]
        last = len(closed)
        while last and closed[last - 1].start >= now:
            last -= 1
        first = last
        while first and closed[first - 1].end > cutoff:
            first -= 1
        if first < last:
            merged.add(self._closed_merge(seconds, closed, first, last))
        open_window = self._open
        if open_window is not None and open_window.end > cutoff and open_window.start < now:
            merged.add(open_window)
        return merged

    def _closed_merge(
        self, seconds: float, closed: list[Window], first: int, last: int
    ) -> Window:
        """The merge of ``closed[first:last]``, cached for one horizon.

        Closed windows never change, so a cached merge with the same
        first window stays valid; windows closed since are merged onto it.
        """
        head, tail = closed[first], closed[last - 1]
        cached = self._trailing.get(seconds)
        if cached is not None and cached[0] is head:
            part = cached[2]
            index = last - 1
            while index >= first and closed[index] is not cached[1]:
                index -= 1
            if index >= first:
                for window in closed[index + 1:last]:
                    part.add(window)
                self._trailing[seconds] = (head, tail, part)
                return part
        part = Window(head.start, 0.0)
        for window in closed[first:last]:
            part.add(window)
        if cached is None and len(self._trailing) >= _MAX_CACHED_HORIZONS:
            self._trailing.clear()
        self._trailing[seconds] = (head, tail, part)
        return part

    def series(self, level: int = 0, field: str = "mean") -> list[tuple[float, float]]:
        """(window start, field) pairs for plotting/export."""
        out = []
        for window in self.windows(level=level):
            summary = window.summary()
            out.append((window.start, summary[field]))
        return out
