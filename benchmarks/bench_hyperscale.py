"""R-F-hyperscale: fleet cells up to 1M VMs on the hyperscale kernel.

Expected shape: every cell deploys and drains its whole fleet (deploys ==
expiries == VMs), single-shard cells hold nearly the entire fleet in the
pending queue at peak (a million-timer standing set on the kernel's one
binary-heap event queue), and sharding divides the peak per cell. The memory
test is the committed budget the hyperscale story depends on: a 100k-VM
cell (10k in quick mode) must finish inside ``HYPERSCALE_RSS_BUDGET_MB``
of process peak RSS — the tripwire that catches any per-timer allocation
creeping into the kernel hot path.
"""

import os

#: Peak process RSS (ru_maxrss, MB) allowed for the budget cell. The full
#: exhibit's 1M-VM cell measures ~120 MB standalone, so the budget holds ~8x
#: headroom and interpreter noise never trips it. The tight per-timer check
#: is tests/core/test_hyperscale_cell.py's traced-bytes tripwire.
HYPERSCALE_RSS_BUDGET_MB = 1024.0

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") == "1"
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))


def test_bench_hyperscale(exhibit):
    result = exhibit("R-F-hyperscale")
    assert result.rows
    for vms, shards, deploys, expiries, peak_pending, _days in result.rows:
        # The whole fleet deploys and fully drains, whatever the sharding.
        assert deploys == vms
        assert expiries == vms
        assert 0 < peak_pending <= vms
    singles = [row for row in result.rows if row[1] == 1]
    # One-hour arrivals vs six-hour median lifetimes: an unsharded cell
    # holds nearly its whole fleet as standing timers at peak.
    assert singles
    for vms, _shards, _deploys, _expiries, peak_pending, _days in singles:
        assert peak_pending > 0.9 * vms


def test_hyperscale_cell_memory_budget(benchmark):
    """A >=100k-VM cell (10k quick), inside the RSS budget."""
    from repro.core.experiments import hyperscale_sweep

    vms = 10_000 if QUICK else 100_000
    points = benchmark.pedantic(
        hyperscale_sweep,
        kwargs={
            "seed": SEED,
            "fleets": (vms,),
            "shard_counts": (1,),
        },
        rounds=1,
        iterations=1,
    )
    (point,) = points
    assert point["deploys"] == vms
    assert point["expiries"] == vms
    assert point["rss_mb"] < HYPERSCALE_RSS_BUDGET_MB
