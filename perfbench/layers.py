"""Per-layer self time from a cProfile run of the timed section.

Layers are the ``repro`` packages, with ``controlplane/bus.py`` split out
as ``bus`` and the top-level ``repro`` modules counted under ``core``.
Benchmark code (the storm worker loops, the timing hooks) is the
``harness`` layer. Self time (``tottime``) of a function outside both —
builtins such as ``heappush`` and generator ``send``, or stdlib
``random`` — is charged to the layer that called it, through any chain of
outside callers, split by each caller's share of the time.
"""

from __future__ import annotations

import os
import pstats

REPRO_LAYERS = (
    "sim",
    "workloads",
    "core",
    "operations",
    "controlplane",
    "bus",
    "storage",
    "cloud",
    "datacenter",
    "telemetry",
    "tracing",
    "triage",
    "faults",
    "analysis",
    "traces",
)
LAYERS = REPRO_LAYERS + ("harness",)


def layer_of(filename: str, repro_dir: str, harness_dir: str) -> str | None:
    """The layer a source file belongs to, or None for code outside both."""
    if filename.startswith(repro_dir + os.sep):
        parts = filename[len(repro_dir) + 1 :].split(os.sep)
        if len(parts) == 1:
            return "core"
        if parts[0] == "controlplane" and parts[1] == "bus.py":
            return "bus"
        return parts[0]
    if filename.startswith(harness_dir + os.sep):
        return "harness"
    return None


def self_times(
    stats: pstats.Stats, repro_dir: str, harness_dir: str
) -> tuple[dict[str, float], float]:
    """Self seconds per layer, and the profiled total."""
    table = stats.stats
    owner = {func: layer_of(func[0], repro_dir, harness_dir) for func in table}
    memo: dict = {}

    def split(func, visiting: frozenset) -> dict[str, float]:
        """Fractions of ``func``'s time by owning layer, via its callers."""
        layer = owner.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in visiting or func not in table:
            return {}
        callers = table[func][4]
        weight = sum(entry[3] for entry in callers.values())
        shares: dict[str, float] = {}
        for caller, entry in callers.items():
            fraction = entry[3] / weight if weight else 1.0 / len(callers)
            for name, part in split(caller, visiting | {func}).items():
                shares[name] = shares.get(name, 0.0) + fraction * part
        memo[func] = shares
        return shares

    totals = dict.fromkeys(LAYERS, 0.0)
    profiled = 0.0
    for func, (_cc, _nc, tottime, _ct, callers) in table.items():
        profiled += tottime
        layer = owner[func]
        if layer is not None:
            totals[layer] += tottime
            continue
        # An outside function: charge each caller's part of its self time.
        for caller, entry in callers.items():
            for name, part in split(caller, frozenset({func})).items():
                totals[name] += entry[2] * part
    return totals, profiled


def call_count(stats: pstats.Stats, function) -> int:
    """Calls the profile saw to a plain (non-generator) Python function."""
    code = function.__code__
    entry = stats.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[1] if entry else 0
