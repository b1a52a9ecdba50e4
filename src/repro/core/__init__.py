"""Public API: scenarios, the profiler, and the experiment registry.

Start here::

    from repro import CloudManagementProfiler, profiles

    profiler = CloudManagementProfiler(profiles.CLOUD_A, seed=7)
    result = profiler.run(duration=6 * 3600.0)
    print(result.report())
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.core.experiments": (
            "EXPERIMENTS",
            "ExperimentResult",
            "run_experiment",
        ),
        "repro.core.parallel": ("derive_seed", "resolve_parallelism", "run_cells"),
        "repro.core.profiler": ("CloudManagementProfiler", "ProfileResult"),
        "repro.core.scenario": ("Scenario", "ScenarioResult"),
        "repro.core.sensitivity": ("sweep",),
    },
)

__all__ = [
    "CloudManagementProfiler",
    "EXPERIMENTS",
    "ExperimentResult",
    "ProfileResult",
    "Scenario",
    "ScenarioResult",
    "derive_seed",
    "resolve_parallelism",
    "run_cells",
    "run_experiment",
    "sweep",
]
