"""Public API: scenarios and the experiment registry.

Start here::

    from repro import Scenario, profiles

    result = Scenario(profiles.CLOUD_A, duration_s=6 * 3600.0, seed=7).run()
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
        "repro.core.scenario": ("Scenario", "ScenarioResult"),
        "repro.core.sensitivity": ("sweep",),
    },
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "Scenario",
    "ScenarioResult",
    "derive_seed",
    "resolve_parallelism",
    "run_cells",
    "run_experiment",
    "sweep",
]
