"""Plain-text rendering for tables and series (bench harness output)."""

from __future__ import annotations

import csv
import pathlib
import typing

#: How many points :func:`render_series` keeps, and its widest bar.
SERIES_POINTS = 40
BAR_WIDTH = 40


def render_table(
    headers: typing.Sequence[str],
    rows: typing.Sequence[typing.Sequence[typing.Any]],
    title: str = "",
) -> str:
    """A fixed-width ASCII table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row!r}"
            )
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))

    def line(values: typing.Sequence[str]) -> str:
        return "  ".join(value.ljust(width) for value, width in zip(values, widths)).rstrip()

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(line(["-" * width for width in widths]))
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def export_series_csv(
    series: typing.Mapping[str, typing.Sequence[tuple[float, float]]],
    path: str | pathlib.Path,
) -> int:
    """Write labeled series as long-form CSV (label, x, y) for plotting.

    Returns the number of data rows written.
    """
    rows = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["series", "x", "y"])
        for label, pairs in series.items():
            for x, y in pairs:
                writer.writerow([label, x, y])
                rows += 1
    return rows


def render_series(
    label: str,
    pairs: typing.Sequence[tuple[float, float]],
    x_name: str = "x",
    y_name: str = "y",
) -> str:
    """A series with an inline bar chart, downsampled to about
    :data:`SERIES_POINTS` rows of bars up to :data:`BAR_WIDTH` wide."""
    if not pairs:
        return f"{label}: (empty)"
    step = max(1, len(pairs) // SERIES_POINTS)
    sampled = list(pairs[::step])
    if sampled[-1] != pairs[-1]:
        sampled.append(pairs[-1])
    peak = max(y for _, y in sampled)
    out = [f"{label}  ({x_name} vs {y_name})"]
    for x, y in sampled:
        bar = "#" * (int(BAR_WIDTH * y / peak) if peak > 0 else 0)
        out.append(f"  {x:>12.1f}  {y:>12.4f}  {bar}")
    return "\n".join(out)
