#!/usr/bin/env python
"""Regenerate exhibits at full size and diff them against the committed results.

Every registered exhibit is deterministic given the seed, so a rerun at
seed 0 must reproduce ``benchmarks/results/<ID>.txt`` (and ``.csv``, or
an empty series where none is committed) byte for byte. The eighteen fast
exhibits are compared in the unit suite (``tests/core/test_exhibit_results.py``);
this script covers the slow six, serially. ``--parallel N`` checks all
24 registered exhibits instead, each with its cells fanned across N worker
processes (an exhibit with one cell runs in-process), which must change
nothing. Nothing under ``benchmarks/results/`` is written.

Usage::

    PYTHONPATH=src python benchmarks/check_exhibit_results.py
    PYTHONPATH=src python benchmarks/check_exhibit_results.py --parallel 2
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import sys
import tempfile
import time

from repro.analysis.report import export_series_csv
from repro.core.experiments import EXPERIMENTS, run_experiment

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: The exhibits too slow for the unit suite (55-105 s serial together on a
#: 2-core container, by host load).
SLOW_EXHIBITS = (
    "R-F5", "R-F-alerts", "R-X3", "R-X6", "R-X7", "R-F-hyperscale",
)


def _series_csv(series: dict, scratch: pathlib.Path) -> str:
    """The series exactly as ``export_series_csv`` writes it ('' for none)."""
    if not series:
        return ""
    export_series_csv(series, scratch)
    return scratch.read_bytes().decode()


def _diff(label: str, committed: str, fresh: str) -> list[str]:
    """Unified diff lines; line endings count (the CSVs end lines in CRLF)."""
    return [
        line.rstrip("\r\n")
        for line in difflib.unified_diff(
            committed.splitlines(keepends=True), fresh.splitlines(keepends=True),
            fromfile=f"{label} (committed)", tofile=f"{label} (fresh)",
        )
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="check every exhibit on N worker processes (default: the "
        "slow six, serially)",
    )
    args = parser.parse_args(argv)
    exp_ids = SLOW_EXHIBITS if args.parallel is None else sorted(EXPERIMENTS)

    scratch = pathlib.Path(tempfile.mkdtemp()) / "series.csv"
    failures = []
    for exp_id in exp_ids:
        started = time.perf_counter()
        result = run_experiment(exp_id, seed=0, quick=False, parallel=args.parallel)
        csv_path = RESULTS_DIR / f"{exp_id}.csv"
        diff = _diff(
            f"{exp_id}.txt", (RESULTS_DIR / f"{exp_id}.txt").read_text(),
            result.render() + "\n",
        ) + _diff(
            f"{exp_id}.csv",
            csv_path.read_bytes().decode() if csv_path.exists() else "",
            _series_csv(result.series, scratch),
        )
        elapsed = time.perf_counter() - started
        print(f"{exp_id:<16} {'FAIL' if diff else 'OK  '} {elapsed:6.1f} s", flush=True)
        for line in diff:
            print(f"    {line}")
        if diff:
            failures.append(exp_id)
    if failures:
        print(f"\nFAIL: {', '.join(failures)} differ from benchmarks/results/", file=sys.stderr)
        return 1
    print(f"\nok: {len(exp_ids)} exhibits byte-identical to benchmarks/results/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
