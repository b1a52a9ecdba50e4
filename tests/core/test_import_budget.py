"""Import budget: a run loads only the ``repro`` modules it uses.

Every package ``__init__`` resolves its public names lazily, so importing
a package costs nothing until a name is used, and the modules that build
a management server import the control plane where they build one. These
checks run in a fresh interpreter, because the test process has long
since imported everything.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"

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

#: The management server and the layers only a server run builds.
SERVER_PATH = ("repro.controlplane.server", "repro.cloud.", "repro.datacenter.")


def run_fresh(*statements: str) -> str:
    """The standard output of ``statements`` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", "\n".join(statements)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def loaded_after(*statements: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``statements``."""
    stdout = run_fresh(
        "import sys",
        *statements,
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))",
    )
    return set(stdout.split())


def on_server_path(loaded: set[str]) -> list[str]:
    return sorted(name for name in loaded if name.startswith(SERVER_PATH))


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


def test_benchmark_child_imports_load_no_control_plane():
    """The imports every benchmark child makes before its workload."""
    loaded = loaded_after(
        "import repro, repro.sim.events, repro.sim.kernel, repro.workloads.driver"
    )
    assert "repro.workloads.driver" in loaded
    assert on_server_path(loaded) == []
    assert "repro.operations.provisioning" not in loaded


def test_hyperscale_cell_loads_no_control_plane():
    loaded = loaded_after(
        "from repro.core.experiments import hyperscale_sweep",
        "hyperscale_sweep(seed=0, fleets=(200,), shard_counts=(1,))",
    )
    assert "repro.core.parallel" in loaded
    assert on_server_path(loaded) == []
    assert "repro.controlplane.task_manager" not in loaded
    layers = ("repro.telemetry.", "repro.triage.")
    assert sorted(name for name in loaded if name.startswith(layers)) == []


def test_cli_import_loads_no_server():
    loaded = loaded_after("import repro.cli")
    assert "repro.core.experiments" in loaded
    assert "repro.controlplane.server" not in loaded


@pytest.mark.parametrize(
    "workload", ["clone_storm", "cloud_day", "observed_bus_storm", "fleet_timers"]
)
def test_benchmark_workload_loads_nothing_after_its_first_event(workload):
    """Deferred imports run in set-up: the ``repro`` modules loaded at a
    workload's first ``Simulator.run`` are all it holds when the timed
    section ends, so no module loads inside it."""
    stdout = run_fresh(
        "import json, sys",
        f"sys.path.insert(0, {str(PERFBENCH)!r})",
        "from repro.sim.kernel import Simulator",
        "from workloads import WORKLOADS",
        "def loaded():",
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'repro')",
        "first = []",
        "original = Simulator.run",
        "def run(self, until=None):",
        "    if not first:",
        "        first.append(loaded())",
        "    return original(self, until)",
        "Simulator.run = run",
        f"cls, _full, small = WORKLOADS[{workload!r}]",
        "cls(1, small).run()",
        "print(json.dumps({'first': first[0], 'end': loaded()}))",
    )
    modules = json.loads(stdout)
    assert sorted(set(modules["end"]) - set(modules["first"])) == []
