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

from repro.sim.stats import LOG_HISTOGRAM_BASE, LogHistogram

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

    def __init__(self, start: float, width: float, base: float = LOG_HISTOGRAM_BASE) -> None:
        self.start = start
        self.width = width
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.last = 0.0
        self.hist = LogHistogram(base=base)

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
        self.count += 1
        self.sum += value
        # Comparisons, not min()/max(): same result, no builtin call on
        # the per-sample scrape path.
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.last = value
        self.hist.record(value)

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

    def merge(self, other: "Window") -> None:
        """Fold a later window into this one (coarser-level roll-up)."""
        if other.count:
            self.count += other.count
            self.sum += other.sum
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
            self.last = other.last
            self.hist.merge(other.hist)
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


class RollupSeries:
    """A bounded multi-level roll-up of one metric's scraped samples.

    ``record`` lands samples in the open level-0 window (windows are
    aligned to ``start % width == 0``). When level ``i`` exceeds its
    retention it folds its oldest windows into level ``i+1``; the top
    level evicts. Total memory is therefore fixed by the retention spec,
    independent of run length — the strict bound the scraper relies on.
    """

    __slots__ = ("name", "kind", "retention", "base", "_levels", "_open", "_aggs")

    def __init__(
        self,
        name: str,
        kind: str = "gauge",
        retention: tuple[tuple[float, int], ...] = DEFAULT_RETENTION,
        base: float = LOG_HISTOGRAM_BASE,
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
        self.base = base
        # Closed windows per level, oldest first.
        self._levels: list[list[Window]] = [[] for _ in retention]
        # The open (still-filling) level-0 window.
        self._open: Window | None = None
        # Per-level aggregation windows being assembled for the next level.
        self._aggs: list[Window | None] = [None] * len(retention)

    # -- recording -----------------------------------------------------------

    def _window_for(self, time: float) -> Window:
        width = self.retention[0][0]
        start = math.floor(time / width) * width
        open_window = self._open
        if open_window is None:
            self._open = open_window = Window(start, width, base=self.base)
        elif start > open_window.start:
            self._close(open_window)
            self._open = open_window = Window(start, width, base=self.base)
        elif start < open_window.start:
            raise ValueError(
                f"sample at {time} predates open window {open_window.start}"
            )
        return open_window

    def record(self, time: float, value: float) -> None:
        """Land one scalar sample (gauge level or counter delta)."""
        self._window_for(time).record(value)

    def absorb_histogram(self, time: float, delta: LogHistogram) -> None:
        """Land one scraped histogram delta."""
        self._window_for(time).absorb_histogram(delta)

    def _close(self, window: Window) -> None:
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
            agg = Window(start, width, base=self.base)
            self._aggs[level + 1] = agg
        agg.merge(window)

    # -- queries -------------------------------------------------------------

    def windows(self, level: int = 0, include_open: bool = True) -> list[Window]:
        """Windows at one level, oldest first (open window last)."""
        out = list(self._levels[level])
        if level > 0 and self._aggs[level] is not None:
            out.append(self._aggs[level])
        if level == 0 and include_open and self._open is not None:
            out.append(self._open)
        return out

    def latest(self) -> Window | None:
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
        """
        cutoff = now - seconds
        merged = Window(cutoff, seconds, base=self.base)
        for window in self.windows(level=0, include_open=True):
            if window.end > cutoff and window.start < now:
                if window.count:
                    merged.count += window.count
                    merged.sum += window.sum
                    merged.min = min(merged.min, window.min)
                    merged.max = max(merged.max, window.max)
                    merged.last = window.last
                    merged.hist.merge(window.hist)
        return merged

    def series(self, level: int = 0, field: str = "mean") -> list[tuple[float, float]]:
        """(window start, field) pairs for plotting/export."""
        out = []
        for window in self.windows(level=level):
            summary = window.summary()
            out.append((window.start, summary[field]))
        return out
