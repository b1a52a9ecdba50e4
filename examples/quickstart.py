#!/usr/bin/env python3
"""Quickstart: profile the management workload of a self-service cloud.

Runs a four-hour measurement window against the CLOUD_A profile (a large
dev/test self-service cloud) and prints the full characterization report:
operation mix, per-operation latency, control-vs-data plane attribution,
control-plane utilization, and the arrival-rate series.

Usage::

    python examples/quickstart.py [--duration HOURS] [--seed N] [--profile NAME]
"""

import argparse

from repro import Scenario
from repro.workloads.profiles import ALL_PROFILES


def main() -> None:
    profiles_by_name = {profile.name: profile for profile in ALL_PROFILES}
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=4.0, help="window in hours")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--profile",
        choices=sorted(profiles_by_name),
        default="cloud_a",
        help="which cloud setup to profile",
    )
    args = parser.parse_args()

    profile = profiles_by_name[args.profile]
    print(f"Profiling {profile.name}: {profile.description}\n")
    result = Scenario(profile, duration_s=args.duration * 3600.0, seed=args.seed).run()
    print(result.report())

    print()
    bottleneck = result.server.bottleneck()
    print(
        f"Most-utilized control-plane resource over this window: {bottleneck}. "
        f"Skipped (no-target) operations: {sum(result.driver.skipped.values())}."
    )


if __name__ == "__main__":
    main()
