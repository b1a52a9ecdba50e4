"""Import budget: a run loads only the ``repro`` modules it uses.

Every package ``__init__`` resolves its public names lazily, so importing
a package costs nothing until a name is used. These checks run in a fresh
interpreter, because the test process has long since imported everything.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Optional layers that a plain simulation never builds.
OFF_PATH = (
    "repro.core.experiments",
    "repro.controlplane.bus",
    "repro.controlplane.recovery",
    "repro.telemetry.recorder",
    "repro.telemetry.slo",
    "repro.telemetry.scraper",
    "repro.tracing.sampling",
    "repro.tracing.export",
    "repro.faults.schedule",
    "repro.faults.injector",
    "repro.cloud.federation",
    "repro.controlplane.shard",
)


def loaded_after(*statements: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``statements``."""
    code = "\n".join(
        [
            "import sys",
            *statements,
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))",
        ]
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    return set(completed.stdout.split())


def test_simulator_import_loads_only_the_kernel_package():
    loaded = loaded_after("from repro.sim import Simulator")
    outside = [name for name in loaded if name != "repro" and name.split(".")[:2] != ["repro", "sim"]]
    assert outside == []
    assert "repro.sim.kernel" in loaded


def test_scenario_path_loads_no_optional_layer():
    loaded = loaded_after(
        "import repro",
        "import repro.workloads.driver",
        "import repro.core.scenario",
    )
    assert "repro.core.scenario" in loaded
    assert sorted(name for name in OFF_PATH if name in loaded) == []
    assert sorted(name for name in loaded if name.startswith("repro.triage")) == []


def test_bare_storm_rig_loads_no_bus_journal_or_recorder():
    """A rig without a bus, a journal, a recorder or telemetry builds
    their null twins only, and those live outside the layers' modules."""
    loaded = loaded_after(
        "from repro.core.experiments import StormRig",
        "StormRig(seed=0, hosts=2, datastores=1)",
    )
    assert "repro.controlplane.server" in loaded
    layers = (
        "repro.controlplane.bus",
        "repro.controlplane.recovery",
        "repro.telemetry.recorder",
        "repro.telemetry.slo",
    )
    assert sorted(name for name in layers if name in loaded) == []


def test_package_import_loads_no_submodule():
    loaded = loaded_after("import repro")
    assert loaded == {"repro"}
