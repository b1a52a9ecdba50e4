"""The perfbench workloads still build, run and produce their fingerprints.

``perfbench/`` is frozen: it drives ``StormRig`` and the metric
registries through the keywords it was written against. Each workload
runs once at small size in a fresh interpreter with the environment
``perfbench/run.py`` gives its children, and must break no invariant and
reproduce the fingerprint recorded for it (seed 1; the same under
``PYTHONHASHSEED`` 1 and 2).
"""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[2] / "perfbench"


def _load_harness():
    """``perfbench/run.py`` as a module (it imports its siblings by name)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


harness = _load_harness()

#: ``child.py --seed 1 --small`` fingerprints.
SMALL_FINGERPRINTS = {
    "clone_storm": "de1dff6e467194f7",
    "cloud_day": "85b2c62f810d63e6",
    "observed_bus_storm": "6f7b2b178637d62f",
    "fleet_timers": "0eb2e1287c364396",
}


@pytest.mark.parametrize("workload", sorted(SMALL_FINGERPRINTS))
def test_small_run_matches_recorded_fingerprint(workload):
    record = harness.run_child(workload, 1, small=True, hash_seed="1")
    assert "error" not in record, record["error"]
    assert record["violations"] == []
    assert record["fingerprint"] == SMALL_FINGERPRINTS[workload]
