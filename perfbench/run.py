"""The repo benchmark: host time of four simulator workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check            # determinism + traced self-check, all workloads
    python3 perfbench/run.py --record 0 1 2 ... # record full-size fingerprints for seeds

A measuring invocation never times anything in its own process. It starts
every run as a fresh interpreter (``child.py``), one at a time, and waits
idle while it runs:

1. two small-size runs of the workload under ``PYTHONHASHSEED`` 1 and 2.
   They warm the ``.pyc`` and disk caches, their times are discarded, and
   their fingerprints and event counts must be identical;
2. full-size timed runs under ``PYTHONHASHSEED=0`` until ``--seconds`` is
   spent (at least three), with one pass of the reference load
   (``reference.py``) before the first and after each. ``--trace 0``
   reports the end-to-end metrics: medians over the runs, with the times
   scaled by the host's speed (``REFERENCE_S`` over the median pass);
3. with ``--trace 1``, three timed runs and then two runs under cProfile.
   It reports per-layer self time, counts, ``profile.coverage`` and
   ``trace.overhead_ratio``, and requires both profiled runs to give
   identical counts.

A run fails if it raises, breaks an invariant, or its fingerprint differs
from the one recorded in ``fingerprints.json`` for that workload and seed
(or, for an unrecorded seed, from the invocation's other runs). The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FINGERPRINTS = BENCH / "fingerprints.json"

WORKLOADS = ("clone_storm", "cloud_day", "observed_bus_storm", "fleet_timers")
NO_BUS = ("clone_storm", "cloud_day", "fleet_timers")
CHECK_HASH_SEEDS = ("1", "2")
TIMED_HASH_SEED = "0"
MIN_RUNS = 3
TRACE_BASELINE_RUNS = 3
MIN_COVERAGE = 0.95
CHILD_TIMEOUT_S = 150.0
# Environment that would change what a run does: the process pool and the
# queue backend stay at their defaults.
SCRUBBED = ("REPRO_BENCH_PARALLEL", "REPRO_SIM_QUEUE", "PYTHONPATH", "PYTHONHASHSEED")


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_child(
    workload: str,
    seed: int,
    small: bool = False,
    profile: bool = False,
    hash_seed: str = TIMED_HASH_SEED,
) -> dict:
    """One run in a fresh interpreter; ``{"error": ...}`` if it failed."""
    command = [
        sys.executable,
        str(BENCH / "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if small:
        command.append("--small")
    if profile:
        command.append("--profile")
    env = {key: value for key, value in os.environ.items() if key not in SCRUBBED}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hash_seed
    spawned = clock()
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S:.0f}s"}
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines() or ["no output"]
        return {"error": f"exit {done.returncode}: {lines[-1]}"}
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["first_event"] - spawned
    return record


def load_recorded() -> dict:
    if FINGERPRINTS.is_file():
        return json.loads(FINGERPRINTS.read_text())
    return {}


def judge(runs: list[dict], expected: str | None) -> list[str]:
    """One reason per failed run. Every run must match ``expected`` (the
    recorded fingerprint) or, without one, the first run's fingerprint."""
    reference = expected
    reasons = []
    for index, run in enumerate(runs):
        if "error" in run:
            reasons.append(f"run {index}: {run['error']}")
        elif run["violations"]:
            reasons.append(f"run {index}: {'; '.join(run['violations'][:3])}")
        elif reference is None:
            reference = run["fingerprint"]
        elif run["fingerprint"] != reference:
            reasons.append(
                f"run {index}: fingerprint {run['fingerprint']} != {reference}"
            )
    return reasons


def hash_seed_check(workload: str, seed: int) -> tuple[list[dict], list[str]]:
    """The warm-up pair: small size under two ``PYTHONHASHSEED`` values."""
    runs = [
        run_child(workload, seed, small=True, hash_seed=hash_seed)
        for hash_seed in CHECK_HASH_SEEDS
    ]
    reasons = judge(runs, None)
    if not reasons and runs[0]["counts"]["sim.events"] != runs[1]["counts"]["sim.events"]:
        reasons.append("run 1: sim.events differs across PYTHONHASHSEED")
    return runs, [f"hash-seed check {reason}" for reason in reasons]


def traced_self_check(workload: str, traced: list[dict]) -> list[str]:
    """Both profiled runs agree on every count, cover the profile, and keep
    the layers a workload bypasses at zero."""
    reasons = []
    if any("error" in run for run in traced):
        return reasons  # already a failed run
    if traced[0]["counts"] != traced[1]["counts"]:
        differing = sorted(
            key
            for key in set(traced[0]["counts"]) | set(traced[1]["counts"])
            if traced[0]["counts"].get(key) != traced[1]["counts"].get(key)
        )
        reasons.append(f"traced counts differ: {differing[:5]}")
    for run in traced:
        coverage = coverage_of(run)
        if coverage < MIN_COVERAGE:
            reasons.append(f"profile.coverage {coverage:.4f} < {MIN_COVERAGE}")
        if workload in NO_BUS and run["self_s"]["bus"] > 0.0:
            reasons.append(f"bus self time {run['self_s']['bus']:.6f}s on {workload}")
        if workload == "observed_bus_storm" and run["counts"]["storage.copies"]:
            reasons.append("storage.copies is not zero on observed_bus_storm")
    return reasons


def coverage_of(run: dict) -> float:
    layered = sum(value for layer, value in run["self_s"].items() if layer != "harness")
    return layered / run["profiled_s"]


def spec() -> dict:
    """Metric names and units, from BENCHMARK.json."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in config["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in config["per_layer"]},
    }


def reference_pass() -> float:
    """Host seconds of one reference pass, in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "reference.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout)


def timed_runs(
    workload: str, seed: int, count: int | None, seconds: float
) -> tuple[list[dict], float]:
    """Timed runs, ``count`` of them or as many as fit in ``seconds`` (at
    least ``MIN_RUNS``), and the host's speed over them: ``REFERENCE_S``
    over the median of the reference passes timed between the runs."""
    runs: list[dict] = []
    passes = [reference_pass()]
    begin = clock()
    while True:
        runs.append(run_child(workload, seed))
        passes.append(reference_pass())
        if count is not None:
            if len(runs) == count:
                break
        # Stop before a further run would overrun ``seconds``.
        elif len(runs) >= MIN_RUNS and (clock() - begin) * (len(runs) + 1) / len(runs) > seconds:
            break
    log("reference passes: " + " ".join(f"{value:.4f}" for value in passes))
    return runs, REFERENCE_S / statistics.median(passes)


def end_to_end(runs: list[dict], speed: float) -> dict[str, float]:
    """Medians over the runs, times scaled by the host's ``speed``."""
    good = [run for run in runs if "error" not in run]
    if not good:
        return {}
    wall = statistics.median(run["wall_s"] for run in good) * speed
    return {
        "wall_s": wall,
        "sim_ops_per_s": statistics.median(run["ops"] for run in good) / wall,
        "setup_s": statistics.median(run["setup_s"] for run in good) * speed,
        "peak_rss_mb": statistics.median(run["rss_mb"] for run in good),
    }


def per_layer(untraced: list[dict], traced: list[dict], names) -> dict[str, float]:
    good = [run for run in traced if "error" not in run]
    baseline = [run for run in untraced if "error" not in run]
    if not good or not baseline:
        return {}
    wall = statistics.median(run["wall_s"] for run in baseline)
    profiled = statistics.fmean(run["profiled_s"] for run in good)
    values = {name: 0.0 for name in names}
    values.update(good[0]["counts"])
    for layer in good[0]["self_s"]:
        seconds = statistics.fmean(run["self_s"][layer] for run in good)
        values[f"{layer}.self_s"] = seconds
        values[f"{layer}.share"] = seconds / profiled
    values["sim.events_per_s"] = values["sim.events"] / wall
    values["profile.coverage"] = min(coverage_of(run) for run in good)
    values["trace.overhead_ratio"] = statistics.fmean(run["wall_s"] for run in good) / wall
    return values


def describe(label: str, runs: list[dict]) -> None:
    for index, run in enumerate(runs):
        if "error" in run:
            log(f"{label} {index}: ERROR {run['error']}")
        else:
            log(
                f"{label} {index}: wall_s={run['wall_s']:.4f} setup_s={run['setup_s']:.4f} "
                f"rss_mb={run['rss_mb']:.1f} ops={run['ops']} fingerprint={run['fingerprint']}"
            )


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    metrics_spec = spec()
    expected = load_recorded().get(workload, {}).get(str(seed))
    attempted = 0
    reasons: list[str] = []

    checks, check_reasons = hash_seed_check(workload, seed)
    describe("hash-seed check", checks)
    attempted += len(checks)
    reasons += check_reasons

    timed, speed = timed_runs(workload, seed, TRACE_BASELINE_RUNS if trace else None, seconds)
    describe("timed", timed)
    log(f"host speed {speed:.4f} (reference passes {REFERENCE_S}s / median measured)")
    traced = [run_child(workload, seed, profile=True) for _ in range(2)] if trace else []
    describe("traced", traced)
    attempted += len(timed) + len(traced)
    reasons += judge(timed + traced, expected)
    if trace:
        reasons += traced_self_check(workload, traced)

    if trace:
        values = per_layer(timed, traced, metrics_spec["per_layer"])
        units = metrics_spec["per_layer"]
    else:
        values = end_to_end(timed, speed)
        units = metrics_spec["end_to_end"]
    missing = sorted(set(units) - set(values))
    if missing:
        reasons.append(f"metrics not produced: {missing[:5]}")
    fingerprint = next((run["fingerprint"] for run in timed if "error" not in run), None)
    log(
        f"{workload} seed {seed}: {len(timed)} timed runs, {len(traced)} traced; "
        f"fingerprint {fingerprint} (recorded: {expected or 'none for this seed'})"
    )
    for reason in reasons:
        log(f"FAILED {reason}")
    return {
        "correct": not reasons,
        "attempted": attempted,
        "failed": min(len(reasons), attempted),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }


def check() -> int:
    """Determinism and traced self-check on every workload at small size."""
    problems = []
    for workload in WORKLOADS:
        _, reasons = hash_seed_check(workload, 1)
        traced = [run_child(workload, 1, small=True, profile=True) for _ in range(2)]
        reasons += judge(traced, None) + traced_self_check(workload, traced)
        status = "ok" if not reasons else "FAILED"
        log(f"{workload}: {status}")
        problems += [f"{workload}: {reason}" for reason in reasons]
    for problem in problems:
        log(problem)
    return 1 if problems else 0


def record(seeds: list[int]) -> int:
    """Run every workload once per seed at full size; store fingerprints."""
    recorded = load_recorded()
    for seed in seeds:
        for workload in WORKLOADS:
            run = run_child(workload, seed)
            reasons = judge([run], None)
            if reasons:
                log(f"{workload} seed {seed}: {reasons[0]}")
                return 1
            recorded.setdefault(workload, {})[str(seed)] = run["fingerprint"]
            log(f"{workload} seed {seed}: {run['fingerprint']}")
    ordered = {
        workload: dict(sorted(recorded[workload].items(), key=lambda kv: int(kv[0])))
        for workload in sorted(recorded)
    }
    FINGERPRINTS.write_text(json.dumps(ordered, indent=2) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Simulator host-time benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--record", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        log(f"error: no repro package under {SRC}; run from a full checkout")
        return 2
    if args.check:
        return check()
    if args.record:
        return record(args.record)
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
