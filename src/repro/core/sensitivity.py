"""Sensitivity sweeps: how headline metrics respond to any model constant.

A reproduction whose conclusions hinge on calibration guesses should make
probing those guesses one line. ``sweep()`` varies a single
``costs.<field>`` or ``config.<field>`` across values and reruns the
canonical linked-clone storm (the exhibits' shared storm cell), reporting
throughput, latency and the bottleneck per value.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.controlplane.costs import ControlPlaneConfig, ControlPlaneCosts, DEFAULT_COSTS
from repro.core.experiments import ExperimentResult, storm_cell
from repro.core.parallel import run_cells


def _apply(parameter: str, value: typing.Any) -> tuple[ControlPlaneCosts, ControlPlaneConfig]:
    """Build (costs, config) with ``parameter`` ("costs.x"/"config.x") set."""
    try:
        namespace, field = parameter.split(".", 1)
    except ValueError:
        raise ValueError(
            f"parameter must look like 'costs.<field>' or 'config.<field>', "
            f"got {parameter!r}"
        ) from None
    knobs = {"costs": DEFAULT_COSTS, "config": ControlPlaneConfig()}
    if namespace not in knobs:
        raise ValueError(f"unknown namespace {namespace!r} (use costs/config)")
    if not hasattr(knobs[namespace], field):
        raise ValueError(f"unknown {namespace} field {field!r}")
    knobs[namespace] = dataclasses.replace(knobs[namespace], **{field: value})
    return knobs["costs"], knobs["config"]


def sweep(
    parameter: str,
    values: typing.Sequence[typing.Any],
    seed: int = 0,
    total: int = 64,
    concurrency: int = 32,
    linked: bool = True,
    hosts: int = 16,
) -> ExperimentResult:
    """Sweep one constant over ``values``: one storm cell per value, pooled
    like an exhibit's cells (``REPRO_BENCH_PARALLEL`` sets the workers)."""
    if not values:
        raise ValueError("values must be non-empty")
    cells = [
        (seed, hosts, 4, *_apply(parameter, value), total, concurrency, linked)
        for value in values
    ]
    outcomes = run_cells(storm_cell, cells)
    baseline_tph = outcomes[0]["throughput_per_hour"]
    rows = []
    series = []
    for value, outcome in zip(values, outcomes):
        tph = outcome["throughput_per_hour"]
        rows.append(
            [
                value,
                f"{tph:.0f}",
                f"{tph / baseline_tph:.2f}x",
                f"{outcome['latency_p50']:.1f}",
                outcome["bottleneck"],
            ]
        )
        try:
            series.append((float(value), tph))
        except (TypeError, ValueError):
            pass
    mode = "linked" if linked else "full"
    return ExperimentResult(
        exp_id=f"SWEEP:{parameter}",
        title=f"{mode}-clone storm sensitivity to {parameter}",
        headers=[parameter, "clones/hour", "vs first", "p50 (s)", "bottleneck"],
        rows=rows,
        series={"clones/hour": series} if series else {},
        notes=f"storm: {total} clones at concurrency {concurrency}, {hosts} hosts",
    )
