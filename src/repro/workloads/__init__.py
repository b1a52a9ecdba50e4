"""Workload generation: arrival processes, operation mixes, and drivers.

The two production clouds the paper measured are represented as
calibrated synthetic profiles (CLOUD_A, CLOUD_B) plus a CLASSIC_DC
baseline — see :mod:`repro.workloads.profiles` for the parameter
rationale and DESIGN.md for the substitution argument.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.workloads.arrivals": ("ArrivalProcess", "DiurnalPoisson", "MMPPBurst", "Poisson"),
        "repro.workloads.driver": ("WorkloadDriver",),
        "repro.workloads.lifetimes": ("LifetimeModel",),
        "repro.workloads.mixes": ("CLASSIC_DC_MIX", "CLOUD_A_MIX", "CLOUD_B_MIX", "OperationMix"),
        "repro.workloads.profiles": ("CLASSIC_DC", "CLOUD_A", "CLOUD_B", "CloudProfile"),
        "repro.workloads.replay": ("TraceReplayer", "replay_against"),
        "repro.workloads.sampling": (
            "BatchedArrivals",
            "BatchedExponentials",
            "BatchedLifetimes",
            "BatchedUniforms",
        ),
    },
)

__all__ = [
    "ArrivalProcess",
    "BatchedArrivals",
    "BatchedExponentials",
    "BatchedLifetimes",
    "BatchedUniforms",
    "CLASSIC_DC",
    "CLASSIC_DC_MIX",
    "CLOUD_A",
    "CLOUD_A_MIX",
    "CLOUD_B",
    "CLOUD_B_MIX",
    "CloudProfile",
    "DiurnalPoisson",
    "LifetimeModel",
    "MMPPBurst",
    "OperationMix",
    "Poisson",
    "TraceReplayer",
    "WorkloadDriver",
    "replay_against",
]
