#!/usr/bin/env python
"""Kernel perf smoke: microbench dispatch rates vs the committed baseline.

Runs the kernel microbench workloads (no pytest-benchmark needed), derives
a work-units-per-second rate for each, and compares against the ``after``
rates recorded in ``benchmarks/results/BENCH_kernel.json``. Exits non-zero
if any bench regresses by more than the tolerance (default 30%, override
with ``REPRO_PERF_TOLERANCE`` or ``--tolerance``) — the CI tripwire that
keeps kernel hot-path regressions from landing silently.

Each bench also records its peak traced allocation (``tracemalloc``, in a
separate pass so the tracer's ~2x slowdown never touches the timings) and
the same tolerance gates memory: a bench whose peak heap grows >30% over
the committed baseline fails the run. That is the memory budget the
hyperscale exhibit depends on — a million pending timers only fit because
nothing on the hot path quietly started allocating per event.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py             # check
    PYTHONPATH=src python benchmarks/perf_smoke.py --update    # re-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from bench_kernel_micro import (  # noqa: E402
    run_batch_sampling,
    run_cancel_storm,
    run_fair_share_churn,
    run_resource_contention,
    run_spawn_churn,
    run_storm_bus_on,
    run_storm_journal_on,
    run_storm_recorder_on,
    run_storm_telemetry_off,
    run_storm_triage_on,
    run_timeout_chain,
)

BASELINE_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_kernel.json"

#: name -> (callable, args, work units dispatched, unit label)
BENCHES = {
    "timeout_chain": (run_timeout_chain, (20_000,), 20_000, "events"),
    "resource_handoff": (run_resource_contention, (100, 50), 15_000, "acquire+hold+release events"),
    "fair_share_churn": (run_fair_share_churn, (500,), 500, "transfers"),
    "spawn_churn": (run_spawn_churn, (400, 12), 4_800, "processes"),
    "cancel_storm": (run_cancel_storm, (20_000,), 20_000, "cancel/rearm cycles"),
    "batch_sampling": (
        run_batch_sampling,
        (200_000, True),
        200_000,
        "arrival-gap + lifetime draw pairs",
    ),
    "storm_telemetry_off": (run_storm_telemetry_off, (48, 12), 48, "linked clones"),
    "storm_journal_on": (run_storm_journal_on, (48, 12), 48, "linked clones"),
    "storm_bus_on": (run_storm_bus_on, (48, 12), 48, "linked clones"),
    "storm_triage_on": (run_storm_triage_on, (48, 12), 48, "linked clones"),
    "storm_recorder_on": (run_storm_recorder_on, (48, 12), 48, "linked clones"),
}


def measure(rounds: int = 5) -> dict[str, dict[str, float]]:
    """Best-of-N wall time, derived rate, and peak heap for every microbench."""
    results = {}
    for name, (fn, args, units, _unit) in BENCHES.items():
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn(*args)
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best = elapsed
        results[name] = {"seconds": round(best, 6), "rate": round(units / best, 1)}
    # Memory pass, after all timings: tracemalloc roughly halves throughput,
    # so the tracer must never be live while the clock is running.
    for name, (fn, args, _units, _unit) in BENCHES.items():
        tracemalloc.start()
        try:
            fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        results[name]["peak_mb"] = round(peak / 2**20, 2)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_PERF_TOLERANCE", "0.30")),
        help="allowed fractional regression vs baseline (default 0.30)",
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite the baseline's after rates"
    )
    args = parser.parse_args(argv)

    measured = measure(rounds=args.rounds)
    baseline = json.loads(BASELINE_PATH.read_text())

    if args.update:
        for name, sample in measured.items():
            entry = baseline["benches"].setdefault(name, {})
            entry["after"] = sample
            before = entry.get("before")
            if before and before.get("rate"):
                entry["speedup"] = round(sample["rate"] / before["rate"], 2)
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"updated {BASELINE_PATH}")
        return 0

    failures = []
    print(
        f"{'bench':<20} {'baseline/s':>14} {'measured/s':>14} {'delta':>8} "
        f"{'base MB':>9} {'meas MB':>9} {'delta':>8}"
    )
    for name, sample in measured.items():
        entry = baseline["benches"].get(name)
        if entry is None or "after" not in entry:
            print(f"{name:<20} {'(no baseline)':>14} {sample['rate']:>14,.0f}")
            continue
        reference = entry["after"]["rate"]
        delta = sample["rate"] / reference - 1.0
        flag = ""
        if delta < -args.tolerance:
            failures.append(name)
            flag = "  REGRESSION"
        line = f"{name:<20} {reference:>14,.0f} {sample['rate']:>14,.0f} {delta:>7.0%}"
        reference_mb = entry["after"].get("peak_mb")
        if reference_mb:
            memory_delta = sample["peak_mb"] / reference_mb - 1.0
            if memory_delta > args.tolerance:
                failures.append(name)
                flag = "  MEMORY REGRESSION"
            line += f" {reference_mb:>9,.2f} {sample['peak_mb']:>9,.2f} {memory_delta:>7.0%}"
        print(line + flag)
    if failures:
        print(
            f"\nFAIL: {len(failures)} bench(es) regressed more than "
            f"{args.tolerance:.0%} vs {BASELINE_PATH.name}",
            file=sys.stderr,
        )
        return 1
    print(f"\nok: all benches within {args.tolerance:.0%} of baseline (rate and peak memory)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
