"""One benchmark run, in the fresh interpreter ``run.py`` starts for it.

    PYTHONPATH=src python3 perfbench/child.py --workload NAME --seed N [--small] [--profile]

Builds the workload (set-up), runs its timed section, then — outside the
timed section — digests the simulated outputs into a fingerprint, checks
the invariants and reads the per-layer counts. Prints one JSON object.

Times are ``CLOCK_MONOTONIC`` readings, which are system-wide, so the
parent can measure set-up from the moment it started this process.
``--profile`` runs the timed section under cProfile and adds per-layer
self times and call counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def fingerprint(outputs: dict) -> str:
    canonical = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args()

    import cProfile
    import pstats

    import repro
    from repro.sim.events import Timeout
    from repro.sim.kernel import Simulator
    from repro.workloads.driver import WorkloadDriver

    import layers
    from workloads import WORKLOADS

    # Capture every simulator the workload builds (some live inside library
    # calls), and start the clock — and the profiler — at the first event.
    simulators: list = []
    started: list[float] = []
    profiler = cProfile.Profile() if args.profile else None
    original_init, original_run = Simulator.__init__, Simulator.run

    def tracking_init(self, *positional, **keywords):
        original_init(self, *positional, **keywords)
        simulators.append(self)

    def stamping_run(self, until=None):
        if not started:
            started.append(clock())
            if profiler is not None:
                profiler.enable()
        return original_run(self, until)

    Simulator.__init__ = tracking_init
    Simulator.run = stamping_run

    cls, full, small = WORKLOADS[args.workload]
    workload = cls(args.seed, small if args.small else full)
    try:
        workload.run()
    finally:
        if profiler is not None:
            profiler.disable()
    ended = clock()

    summary = workload.summary()
    outputs = dict(summary["outputs"], sim_events=sum(s._sequence for s in simulators))
    counts = dict(summary["counts"])
    counts["sim.events"] = outputs["sim_events"]
    counts["sim.processes"] = sum(s._spawned for s in simulators)
    record = {
        "first_event": started[0],
        "wall_s": ended - started[0],
        "ops": summary["ops"],
        "outputs": outputs,
        "fingerprint": fingerprint(outputs),
        "violations": summary["violations"],
        "counts": counts,
    }
    if profiler is not None:
        stats = pstats.Stats(profiler)
        repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
        harness_dir = os.path.dirname(os.path.abspath(__file__))
        self_s, profiled = layers.self_times(stats, repro_dir, harness_dir)
        timeouts = layers.call_count(stats, Simulator.timeout)
        counts["sim.timeout_reuse_ratio"] = (
            1.0 - layers.call_count(stats, Timeout.__init__) / timeouts if timeouts else 0.0
        )
        if args.workload == "cloud_day":
            counts["workloads.arrivals"] = layers.call_count(stats, WorkloadDriver._issue)
        record["self_s"] = self_s
        record["profiled_s"] = profiled
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(record, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
