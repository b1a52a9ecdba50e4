"""Exporters: Prometheus text exposition and JSONL roll-up/alert dumps.

The Prometheus exporter renders the *live* cumulative state of every
family and probe — what a real scrape endpoint would
serve at that instant of simulated time. The JSONL exporters dump the
scraped roll-up store (one line per window) and the alert timeline, the
machine-readable companions to the R-F-alerts exhibit.
"""

from __future__ import annotations

import json
import pathlib
import typing

from repro.sim.stats import LogHistogram
from repro.telemetry.metrics import Telemetry


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def _prom_labels(labels, extra: dict[str, str] | None = None) -> str:
    pairs = list(labels)
    if extra:
        pairs.extend(sorted(extra.items()))
    if not pairs:
        return ""
    inner = ",".join(f'{_prom_name(k)}="{v}"' for k, v in pairs)
    return f"{{{inner}}}"


def _hist_lines(name: str, labels, hist: LogHistogram) -> list[str]:
    lines = []
    cumulative = hist.zeros
    lines.append(f'{name}_bucket{_prom_labels(labels, {"le": "0"})} {cumulative}')
    for upper, count in hist.buckets():
        cumulative += count
        lines.append(
            f'{name}_bucket{_prom_labels(labels, {"le": f"{upper:.6g}"})} {cumulative}'
        )
    lines.append(f'{name}_bucket{_prom_labels(labels, {"le": "+Inf"})} {hist.count}')
    lines.append(f"{name}_sum{_prom_labels(labels)} {hist.total:.6g}")
    lines.append(f"{name}_count{_prom_labels(labels)} {hist.count}")
    return lines


def prometheus_text(telemetry: Telemetry) -> str:
    """Render current metric state in Prometheus text exposition format."""
    lines: list[str] = []
    for family in telemetry.families.values():
        name = _prom_name(family.name)
        if family.kind == "duration":
            lines.append(f"# TYPE {name}_seconds summary")
            for child in family.children():
                lines.append(f"{name}_seconds_sum{_prom_labels(child.labels)} {child.seconds:.6g}")
                lines.append(f"{name}_seconds_count{_prom_labels(child.labels)} {child.count}")
            continue
        if family.help:
            lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.kind}")
        for child in family.children():
            if family.kind == "histogram":
                lines.extend(_hist_lines(name, child.labels, child.hist))
            else:
                lines.append(f"{name}{_prom_labels(child.labels)} {child.value:.6g}")
    for probe in telemetry.probes:
        name = _prom_name(probe.name)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{_prom_labels(probe.labels)} {probe.value:.6g}")
    return "\n".join(lines) + "\n"


def rollups_jsonl(telemetry: Telemetry, level: int = 0) -> typing.Iterator[str]:
    """One JSON line per roll-up window across every scraped series."""
    for metric_id in sorted(telemetry.rollups):
        series = telemetry.rollups[metric_id]
        for window in series.windows(level=level):
            row = {"metric": metric_id, "kind": series.kind, "level": level}
            row.update(window.summary())
            if series.kind == "counter":
                row["rate"] = window.rate
            yield json.dumps(row, sort_keys=True)


def alerts_jsonl(telemetry: Telemetry) -> typing.Iterator[str]:
    """One JSON line per alert-timeline transition."""
    for event in telemetry.monitor.timeline:
        yield json.dumps(
            {
                "time": event.time,
                "rule": event.rule,
                "kind": event.kind,
                "burn_short": event.burn_short,
                "burn_long": event.burn_long,
                "window_short_s": event.window.short_s,
                "window_long_s": event.window.long_s,
                "threshold": event.window.threshold,
            },
            sort_keys=True,
        )


def write_prometheus(telemetry: Telemetry, path: str | pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(prometheus_text(telemetry))
    return path


def write_rollups(
    telemetry: Telemetry, path: str | pathlib.Path, level: int = 0
) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for line in rollups_jsonl(telemetry, level=level):
            handle.write(line + "\n")
    return path


def write_alerts(telemetry: Telemetry, path: str | pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for line in alerts_jsonl(telemetry):
            handle.write(line + "\n")
    return path


def write_incident_bundle(bundle, path: str | pathlib.Path) -> pathlib.Path:
    """One :class:`~repro.telemetry.recorder.IncidentBundle` as a JSON file."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(bundle.to_dict(), sort_keys=True, indent=2) + "\n")
    return path


def write_incident_bundles(
    bundles: typing.Iterable, path: str | pathlib.Path
) -> pathlib.Path:
    """A flight recorder's bundles as JSONL, one bundle per line."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for bundle in bundles:
            handle.write(json.dumps(bundle.to_dict(), sort_keys=True) + "\n")
    return path


def read_incident_bundle(path: str | pathlib.Path):
    """Read one bundle JSON file back (inverse of :func:`write_incident_bundle`)."""
    from repro.telemetry.recorder import IncidentBundle

    return IncidentBundle.from_dict(json.loads(pathlib.Path(path).read_text()))


def read_incident_bundles(path: str | pathlib.Path) -> list:
    """Read a JSONL bundle dump back (inverse of :func:`write_incident_bundles`)."""
    from repro.telemetry.recorder import IncidentBundle

    out = []
    with pathlib.Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(IncidentBundle.from_dict(json.loads(line)))
    return out
