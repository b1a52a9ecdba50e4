"""Shared fixtures: a small managed infrastructure for operation tests."""

import pytest

from repro.controlplane import ControlPlaneConfig, ManagementServer
from repro.datacenter import (
    Cluster,
    Datacenter,
    Datastore,
    Host,
    Network,
    TemplateLibrary,
)
from repro.datacenter.templates import MEDIUM_LINUX
from repro.sim import RandomStreams, Simulator
from repro.telemetry.metrics import Telemetry


class SmallCloud:
    """A 4-host, 2-datastore managed setup used across operation tests."""

    def __init__(self, seed=42, config=None, hosts=4, datastores=2, telemetry=False):
        self.sim = Simulator()
        self.streams = RandomStreams(seed=seed)
        # With ``telemetry`` the server's scoped ids are live (tests read
        # them through ``self.telemetry``).
        self.telemetry = Telemetry(self.sim) if telemetry else None
        self.server = ManagementServer(
            self.sim, self.streams, config=config or ControlPlaneConfig(),
            telemetry=self.telemetry,
        )
        inventory = self.server.inventory
        self.datacenter = inventory.create(Datacenter, name="dc01")
        self.cluster = inventory.create(Cluster, name="gold")
        self.datacenter.add_cluster(self.cluster)
        self.network = inventory.create(Network, name="vm-net")
        self.datastores = [
            inventory.create(Datastore, name=f"lun{i:02d}", capacity_gb=20000.0)
            for i in range(datastores)
        ]
        self.hosts = []
        for i in range(hosts):
            host = inventory.create(Host, name=f"esx{i:02d}")
            self.cluster.add_host(host)
            for datastore in self.datastores:
                host.mount(datastore)
            host.attach_network(self.network)
            self.server.adopt_host(host)
            self.hosts.append(host)
        self.library = TemplateLibrary(inventory)
        self.template = self.library.publish(MEDIUM_LINUX, self.datastores[0])

    def run_op(self, operation, priority=5.0):
        """Submit and wait; returns the completed Task."""
        process = self.server.submit(operation, priority=priority)
        return self.sim.run(until=process)


@pytest.fixture
def cloud():
    return SmallCloud()
