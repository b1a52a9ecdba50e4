#!/usr/bin/env python3
"""What-if replay: re-run a recorded workload against a redesigned plane.

The workflow the paper's conclusions invite operators to run:

1. record a measurement window of a live cloud (here: simulate one; in
   production you'd parse management-server logs into TraceRecords);
2. replay the identical operation arrivals against candidate designs —
   more op threads, database write batching, both;
3. compare what tenants would have experienced, operation by operation.

Usage::

    python examples/whatif_replay.py [--hours H] [--seed N]
"""

import argparse
import dataclasses

from repro.analysis.comparison import comparison_report
from repro.controlplane import ControlPlaneConfig
from repro.sim import RandomStreams, Simulator
from repro.workloads import CLOUD_A, WorkloadDriver, replay_against
from repro.workloads.arrivals import Poisson


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hours", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    profile = dataclasses.replace(
        CLOUD_A,
        hosts=8,
        datastores=4,
        orgs=4,
        initial_vms_per_host=4,
        arrivals=Poisson(rate=0.3),
    )

    print(f"Recording {args.hours:.1f}h of {profile.name} "
          f"(seed {args.seed})...")
    sim = Simulator()
    recorder = WorkloadDriver(sim, RandomStreams(args.seed), profile)
    recorder.run(args.hours * 3600.0)
    recorded = recorder.trace()
    print(f"  {len(recorded)} operations recorded.\n")

    candidates = [
        ("baseline (replayed)", ControlPlaneConfig()),
        ("db batching", ControlPlaneConfig(db_batching=True)),
        ("12 op threads", ControlPlaneConfig(cpu_workers=12)),
        (
            "both",
            ControlPlaneConfig(cpu_workers=12, db_batching=True),
        ),
    ]
    baseline_trace = None
    for label, config in candidates:
        replayer = replay_against(
            recorded, profile, seed=args.seed + 1, config=config
        )
        trace = replayer.trace()
        if baseline_trace is None:
            baseline_trace = trace
            print(f"replayed {replayer.replayed} records against the baseline.\n")
            continue
        print(comparison_report(baseline_trace, trace, "baseline", label))
        print()

    print(
        "Reading: design changes that relieve the saturated control-plane "
        "resource shorten exactly the operations the paper says matter — "
        "without touching the storage plane."
    )


if __name__ == "__main__":
    main()
