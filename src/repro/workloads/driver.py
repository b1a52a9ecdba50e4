"""The workload driver: instantiates a profile and generates its log.

The driver plays the role of the production environment around the
management plane: tenants deploying and abandoning vApps, admins power
cycling and reconfiguring, DRS migrating, elastic capacity arriving. Its
output is the completed-task trace the characterization pipeline analyses
— the synthetic analogue of the logs the paper mined.

Destroys are generated two ways, as in real clouds: most VMs die when
their sampled *lifetime* expires; additionally the mix's DESTROY fraction
tears down a random running vApp early (cancelled experiments). Both are
guarded against double deletion.
"""

from __future__ import annotations

import typing

from repro.cloud.catalog import Catalog, CatalogItem
from repro.cloud.director import CloudDirector, DeployRequest
from repro.cloud.elasticity import SparePool
from repro.cloud.placement import PlacementEngine
from repro.cloud.tenancy import Organization
from repro.cloud.vapp import VApp, VAppState
from repro.controlplane.costs import ControlPlaneConfig, ControlPlaneCosts, DEFAULT_COSTS
from repro.controlplane.server import ManagementServer
from repro.datacenter.entities import Cluster, Datacenter, Datastore, Host, Network
from repro.datacenter.inventory import Inventory
from repro.datacenter.templates import DEFAULT_SPECS, TemplateLibrary
from repro.datacenter.vm import PowerState, VirtualDisk, VirtualMachine
from repro.operations.base import OperationType
from repro.operations.lifecycle import CreateSnapshot, DeleteSnapshot, ReconfigureVM
from repro.operations.migration import MigrateVM
from repro.operations.power import PowerOff, PowerOn
from repro.operations.reconfiguration import (
    AddDatastore,
    AddHost,
    NetworkReconfig,
    RescanDatastore,
)
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.storage.linked_clone import MAX_CHAIN_DEPTH, create_linked_backing
from repro.traces.records import TraceRecord
from repro.workloads.profiles import CloudProfile


class WorkloadDriver:
    """Builds a profile's infrastructure and drives its operation stream."""

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        profile: CloudProfile,
        costs: ControlPlaneCosts = DEFAULT_COSTS,
        config: ControlPlaneConfig | None = None,
    ) -> None:
        self.sim = sim
        self.streams = streams
        self.profile = profile
        self.server = ManagementServer(
            sim, streams.spawn("server"), costs=costs, config=config, name=f"vc:{profile.name}"
        )
        self._rng = streams.stream("driver")
        self._build_infrastructure()
        self.skipped: dict[str, int] = {}
        self._deploy_counter = 0
        self._spares = SparePool(
            hosts=[
                Host(entity_id=f"host-spare-{index}", name=f"spare{index:02d}")
                for index in range(8)
            ],
            datastore_capacity_gb=profile.datastore_capacity_gb,
        )
        # Each sampler prefetches from a named stream that only it draws.
        self._next_arrival = profile.arrivals.sampler(streams.stream("arrivals"))
        self._next_lifetime = profile.lifetime.draws(streams.stream("lifetimes"))
        self._stopped = False

    # -- construction ------------------------------------------------------------

    def _build_infrastructure(self) -> None:
        inventory: Inventory = self.server.inventory
        profile = self.profile
        self.datacenter = inventory.create(Datacenter, name=f"dc:{profile.name}")
        self.cluster = inventory.create(Cluster, name="cluster-1")
        self.datacenter.add_cluster(self.cluster)
        self.network = inventory.create(Network, name="tenant-net")
        self.datastores = [
            inventory.create(
                Datastore,
                name=f"lun{index:02d}",
                capacity_gb=profile.datastore_capacity_gb,
            )
            for index in range(profile.datastores)
        ]
        self.hosts = []
        for index in range(profile.hosts):
            host = inventory.create(Host, name=f"esx{index:02d}")
            self.cluster.add_host(host)
            for datastore in self.datastores:
                host.mount(datastore)
            host.attach_network(self.network)
            self.server.adopt_host(host)
            self.hosts.append(host)

        self.library = TemplateLibrary(inventory)
        self.catalog = Catalog("public")
        for spec_index, spec in enumerate(DEFAULT_SPECS):
            datastore = self.datastores[spec_index % len(self.datastores)]
            self.library.publish(spec, datastore)
            self.catalog.add(CatalogItem(f"{spec.name}-linked", spec.name, linked=True))
            self.catalog.add(CatalogItem(f"{spec.name}-full", spec.name, linked=False))

        self.orgs = [
            Organization(f"org{index:02d}", quota_vms=10_000, quota_storage_gb=1e9)
            for index in range(profile.orgs)
        ]
        self.director = CloudDirector(
            self.server,
            self.cluster,
            self.library,
            self.catalog,
            placement=PlacementEngine(),
        )
        self._seed_initial_population()

    def _seed_initial_population(self) -> None:
        """Pre-provision the steady-state VM population (before t=0).

        These VMs are materialized directly (no simulated operations):
        they are the infrastructure's state when the measured window
        opens, mirroring how the paper's logs start mid-life.
        """
        template = self.library.get(DEFAULT_SPECS[1].name)  # medium-linux
        anchor = template.disks[0].backing
        rng = self.streams.stream("seed")
        for host in self.hosts:
            for index in range(self.profile.initial_vms_per_host):
                vm = self.server.inventory.create(
                    VirtualMachine,
                    name=f"seed-{host.name}-{index}",
                    vcpus=template.vcpus,
                    memory_gb=template.memory_gb,
                    created_at=0.0,
                )
                datastore = self.datastores[index % len(self.datastores)]
                backing = create_linked_backing(anchor, datastore)
                vm.attach_disk(
                    VirtualDisk(
                        label="disk-0",
                        backing=backing,
                        provisioned_gb=template.total_disk_gb,
                    )
                )
                vm.place_on(host)
                if rng.random() < 0.7:
                    vm.power_state = PowerState.ON

    # -- driving --------------------------------------------------------------------

    def run(self, duration: float) -> None:
        """Drive the workload for ``duration`` simulated seconds."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        self._stopped = False
        horizon = self.sim.now + duration
        self.sim.spawn(self._arrival_loop(horizon), name="arrivals")
        self.sim.run(until=horizon)
        self._stopped = True
        # Drain in-flight operations so every task has a finish time.
        self.sim.run()

    def _arrival_loop(self, horizon: float) -> typing.Generator:
        next_arrival = self._next_arrival
        while True:
            next_time = next_arrival(self.sim.now)
            if next_time >= horizon:
                return
            yield self.sim.timeout(next_time - self.sim.now)
            op_type = self.profile.mix.sample(self.streams.stream("mix"))
            self._issue(op_type)

    # -- dispatch -----------------------------------------------------------------

    def _issue(self, op_type: OperationType) -> bool:
        """Run the op type's handler; False (and a skip) if it has none."""
        handler = getattr(self, f"_issue_{op_type.value}", None)
        if handler is None:
            self._skip(op_type.value)
            return False
        handler()
        return True

    def _skip(self, reason: str) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + 1

    def _spawn_guarded(self, generator: typing.Generator, name: str) -> None:
        """Run fire-and-forget; operation failures are part of the trace."""

        def guard():
            try:
                yield from generator
            except Exception:
                pass

        self.sim.spawn(guard(), name=name)

    def _submit_guarded(self, operation, name: str) -> None:
        process = self.server.submit(operation)

        def guard():
            try:
                yield process
            except Exception:
                pass

        self.sim.spawn(guard(), name=name)

    # -- targets ----------------------------------------------------------------------

    def _tenant_vms(self, power: PowerState | None = None) -> list[VirtualMachine]:
        """Placed non-template VMs in ``entity_id`` order; with ``power``,
        only those in that power state."""
        vms = self.server.inventory.vms_by_id()
        if power is None:
            return [vm for vm in vms if not vm.is_template and vm.host is not None]
        return [
            vm
            for vm in vms
            if vm.power_state is power and not vm.is_template and vm.host is not None
        ]

    def _pick(self, items: list) -> typing.Any:
        return items[self._rng.randrange(len(items))] if items else None

    # -- per-op issue handlers ---------------------------------------------------------

    def _issue_deploy(self) -> None:
        org = self._pick(self.orgs)
        spec = self._pick(list(DEFAULT_SPECS))
        linked = self._rng.random() < self.profile.linked_clone_fraction
        item = self.catalog.get(f"{spec.name}-{'linked' if linked else 'full'}")
        # vApp size: 1 + geometric, mean = profile.vapp_size_mean.
        size = 1
        extra_mean = self.profile.vapp_size_mean - 1.0
        while extra_mean > 0 and self._rng.random() < extra_mean / (1.0 + extra_mean):
            size += 1
            if size >= 16:
                break
        self._deploy_counter += 1
        request = DeployRequest(
            org=org,
            item=item,
            vm_count=size,
            vapp_name=f"vapp-{self._deploy_counter}-{org.name}",
        )
        self._spawn_guarded(self._deploy_and_schedule_death(request), "deploy")

    def _deploy_and_schedule_death(self, request: DeployRequest) -> typing.Generator:
        vapp = yield from self.director.deploy(request)
        if vapp.state in (VAppState.RUNNING, VAppState.PARTIAL):
            lifetime = self._next_lifetime()
            self._spawn_guarded(self._delete_after(vapp, lifetime), "lifetime-delete")

    def _delete_after(self, vapp: VApp, delay: float) -> typing.Generator:
        yield self.sim.timeout(delay)
        terminal = (VAppState.DELETED, VAppState.DELETING)
        if vapp.state not in terminal and not self._stopped:
            yield from self.director.delete(vapp)

    def _issue_destroy(self) -> None:
        candidates = self.director.running_vapps()
        vapp = self._pick(candidates)
        if vapp is None:
            self._skip("destroy_no_vapp")
            return
        self._spawn_guarded(self._delete_now(vapp), "early-delete")

    def _delete_now(self, vapp: VApp) -> typing.Generator:
        if vapp.state not in (VAppState.DELETED, VAppState.DELETING):
            yield from self.director.delete(vapp)

    def _issue_power_on(self) -> None:
        vm = self._pick(self._tenant_vms(PowerState.OFF))
        if vm is None:
            self._skip("power_on_no_target")
            return
        self._submit_guarded(PowerOn(vm), "power-on")

    def _issue_power_off(self) -> None:
        vm = self._pick(self._tenant_vms(PowerState.ON))
        if vm is None:
            self._skip("power_off_no_target")
            return
        self._submit_guarded(PowerOff(vm), "power-off")

    def _issue_reconfigure(self) -> None:
        vm = self._pick(self._tenant_vms())
        if vm is None:
            self._skip("reconfigure_no_target")
            return
        self._submit_guarded(
            ReconfigureVM(vm, vcpus=self._rng.choice((1, 2, 4, 8))), "reconfigure"
        )

    def _issue_snapshot_create(self) -> None:
        vm = self._pick(
            [
                vm
                for vm in self.server.inventory.vms_by_id()
                if not vm.is_template
                and vm.host is not None
                and vm.max_chain_depth < MAX_CHAIN_DEPTH - 2
            ]
        )
        if vm is None:
            self._skip("snapshot_no_target")
            return
        self._submit_guarded(CreateSnapshot(vm, f"auto-{self.sim.now:.0f}"), "snapshot")

    def _issue_snapshot_delete(self) -> None:
        vm = self._pick(
            [
                vm
                for vm in self.server.inventory.vms_by_id()
                if vm.snapshots and not vm.is_template and vm.host is not None
            ]
        )
        if vm is None:
            self._skip("snapshot_delete_no_target")
            return
        # Guest writes accumulated since the snapshot: lognormal, median 1 GB.
        from repro.sim.random import bounded, lognormal_from_median

        written_gb = bounded(
            lognormal_from_median(self._rng, 1.0, 1.0), 0.05, 50.0
        )
        self._submit_guarded(DeleteSnapshot(vm, written_gb=written_gb), "snapshot-delete")

    def _issue_migrate(self) -> None:
        vm = self._pick(self._tenant_vms(PowerState.ON))
        if vm is None:
            self._skip("migrate_no_target")
            return
        others = [host for host in self.cluster.usable_hosts if host is not vm.host]
        destination = self._pick(others)
        if destination is None:
            self._skip("migrate_no_destination")
            return
        self._submit_guarded(MigrateVM(vm, destination), "migrate")

    def _issue_rescan_datastore(self) -> None:
        datastore = self._pick(self.cluster.shared_datastores())
        if datastore is None:
            self._skip("rescan_no_datastore")
            return
        self._submit_guarded(RescanDatastore(datastore), "rescan")

    def _issue_add_host(self) -> None:
        host = self._spares.take_host()
        if host is None:
            self._skip("add_host_no_spares")
            return
        shared = self.cluster.shared_datastores()
        self._submit_guarded(
            AddHost(host, self.cluster, shared, networks=[self.network]), "add-host"
        )

    def _issue_add_datastore(self) -> None:
        datastore = self._spares.make_datastore()
        self._submit_guarded(
            AddDatastore(datastore, self.cluster.usable_hosts), "add-datastore"
        )

    def _issue_network_reconfig(self) -> None:
        self._submit_guarded(NetworkReconfig(self.cluster, self.network), "net-reconfig")

    # -- output ---------------------------------------------------------------------------

    def trace(self) -> list[TraceRecord]:
        """Trace records for every completed management task."""
        return [
            TraceRecord.from_task(task)
            for task in self.server.tasks.completed()
            if task.finished_at is not None
        ]
