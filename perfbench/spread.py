"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 [--workloads clone_storm ...] [--out FILE]

Invokes ``run.py`` once per seed and workload, the workloads interleaved
round-robin within each seed, exactly as a measuring harness would. For
every workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile range as a
share of the median, against the metric's bound from BENCHMARK.json:
"ok" below a third of it, "within bound" up to it. It exits 1 if a spread
other than ``setup_s``'s exceeds its bound. ``--out`` saves the raw
results, with each invocation's stderr, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    results: dict[str, list[dict]] = {name: [] for name in args.workloads}
    for seed in args.seeds:
        for name in args.workloads:
            command = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                       "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["log"] = done.stderr.splitlines()
            results[name].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{values}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))

    ok = True
    for name, runs in results.items():
        for metric in config["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            bound = metric["bound"]
            flag = "ok" if spread < bound / 3 else "within bound" if spread <= bound else "WIDE"
            ok &= spread <= bound or metric["name"] == "setup_s"
            print(f"{name:20s} {metric['name']:14s} median={median:<12.6g} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f} "
                  f"(bound {bound}) {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
