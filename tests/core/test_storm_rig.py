"""StormRig refuses layer combinations it cannot build.

Triage and the flight recorder read live telemetry, so asking for either
without ``telemetry=True`` is an error rather than a rig that quietly
gets the null engine and the null recorder. Direct calls are spelled
``bus=False``; a bus always mediates.
"""

import pytest

from repro.controlplane.server import NULL_BUS
from repro.core.experiments import StormRig


@pytest.mark.parametrize("layer", ["triage", "recorder"])
def test_incident_layers_need_telemetry(layer):
    with pytest.raises(ValueError, match="telemetry"):
        StormRig(seed=0, hosts=2, datastores=1, **{layer: True})


def test_bus_always_mediates():
    with pytest.raises(ValueError, match="bus=False"):
        StormRig(seed=0, hosts=2, datastores=1, bus=True, direct_calls=True)
    assert StormRig(seed=0, hosts=2, datastores=1).server.bus is NULL_BUS
    rig = StormRig(seed=0, hosts=2, datastores=1, bus=True, direct_calls=False)
    assert rig.server.bus is rig.bus and rig.bus.mediated
