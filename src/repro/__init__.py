"""repro — reproduction of Soundararajan & Spracklen, IISWC 2013.

*Revisiting the management control plane in virtualized cloud computing
infrastructure.*

The package models a virtualized cloud infrastructure end-to-end — hosts,
datastores, VMs, a vCenter-style management control plane, and a
vCloud-Director-style self-service layer — as a deterministic discrete-event
simulation, then characterizes the management workload that self-service
clouds induce, reproducing the paper's central finding: once linked clones
make the *data* plane cheap, the *control* plane becomes the limiting factor
in cloud provisioning.

Quickstart::

    from repro import CloudManagementProfiler, profiles

    profiler = CloudManagementProfiler(profiles.CLOUD_A, seed=7)
    result = profiler.run(duration=4 * 3600.0)
    print(result.report())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reconstructed table/figure index.
"""

import importlib as _importlib
import sys as _sys


def _lazy_exports(package: str, table: dict[str, tuple[str, ...]]) -> tuple:
    """Return the PEP 562 ``__getattr__`` and ``__dir__`` for ``package``.

    Every ``repro`` package ``__init__`` lists, in ``table``, the
    submodule that defines each public name, and imports nothing itself.
    The first access to a name (``repro.sim.Simulator`` or ``from
    repro.sim import Simulator``) imports its submodule and caches the
    value on the package, so a run compiles and executes only the modules
    it uses. Any other attribute resolves as a submodule
    (``repro.sim.stats``), as it did when the packages imported their
    submodules eagerly.
    """
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is not None:
            value = getattr(_importlib.import_module(module), name)
            setattr(_sys.modules[package], name, value)
            return value
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return _importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(vars(_sys.modules[package])) | origin.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.core.experiments": ("EXPERIMENTS", "ExperimentResult", "run_experiment"),
        "repro.core.profiler": ("CloudManagementProfiler", "ProfileResult"),
        "repro.core.scenario": ("Scenario", "ScenarioResult"),
        "repro.workloads": ("profiles",),
    },
)

__version__ = "1.0.0"

__all__ = [
    "CloudManagementProfiler",
    "EXPERIMENTS",
    "ExperimentResult",
    "ProfileResult",
    "Scenario",
    "ScenarioResult",
    "profiles",
    "run_experiment",
    "__version__",
]
