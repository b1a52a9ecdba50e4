"""Provisioning operations: clone (full/linked) and deploy-from-template.

The control-plane phases are identical between the two clone flavours —
validation, locking, placement, host-agent calls, inventory registration,
result commit. Only the *disk materialization* phase differs:

- full: a byte copy of the source's logical disk through the copy
  scheduler (minutes of data-plane time);
- linked: a delta-backing creation (sub-second, and none of it data-plane).

That asymmetry, multiplied by cloud provisioning rates, is the paper's
headline result.
"""

from __future__ import annotations

import typing

from repro.datacenter.entities import Datastore, Host
from repro.datacenter.vm import PowerState, VirtualDisk, VirtualMachine
from repro.operations.base import CONTROL, DATA, Operation, OperationError, OperationType
from repro.tracing import (
    PHASE_AGENT,
    PHASE_COPY,
    PHASE_CPU,
    PHASE_DB,
    PHASE_LOCK,
    PHASE_PLACEMENT,
)
from repro.storage.linked_clone import (
    create_linked_backing,
    ensure_clone_anchor,
    has_clone_anchor,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.server import ManagementServer
    from repro.controlplane.task_manager import Task


class CloneVM(Operation):
    """Clone ``source`` to a new VM on ``target_host``/``target_datastore``."""

    def __init__(
        self,
        source: VirtualMachine,
        name: str,
        target_host: Host,
        target_datastore: Datastore,
        linked: bool,
    ) -> None:
        self.source = source
        self.name = name
        self.target_host = target_host
        self.target_datastore = target_datastore
        self.linked = linked
        self.op_type = OperationType.CLONE_LINKED if linked else OperationType.CLONE_FULL

    def run(self, server: "ManagementServer", task: "Task") -> typing.Generator:
        costs = server.costs
        if not self.source.disks:
            raise OperationError(f"source {self.source.name!r} has no disks")
        if not self.target_host.is_usable:
            raise OperationError(f"target host {self.target_host.name!r} unusable")

        yield from self.timed(
            server,
            task,
            "validate",
            CONTROL,
            lambda span: server.cpu_work(costs.api_validate_s, span=span),
            tag=PHASE_CPU,
        )

        # Shared lock on the source: many clones of one template proceed
        # concurrently; an exclusive op on it (destroy/snapshot-delete)
        # waits. The target host needs only shared access too — per-host
        # concurrency is governed by the agent's operation slots.
        scope = server.locks.holding(
            [], read_ids=[self.source.entity_id, self.target_host.entity_id]
        )
        grants = yield from self.timed(
            server, task, "lock", CONTROL, scope.acquire(), tag=PHASE_LOCK
        )
        try:
            # Placement scoring reads host/datastore stats rows.
            yield from self.timed(
                server,
                task,
                "placement",
                CONTROL,
                lambda span: server.cpu_work(
                    costs.placement_s, span=span, work_phase=PHASE_PLACEMENT
                ),
                tag=PHASE_PLACEMENT,
            )
            yield from self.timed(
                server,
                task,
                "placement_db",
                CONTROL,
                lambda span: server.database.read(rows=2, span=span),
                tag=PHASE_PLACEMENT,
            )

            agent = server.agent(self.target_host)
            if self.linked:
                vm = yield from self._materialize_linked(server, task, agent)
            else:
                vm = yield from self._materialize_full(server, task, agent)

            # Register the new VM with the host agent and the inventory DB:
            # VM row, per-disk rows, permission/stat rows.
            yield from self.timed(
                server,
                task,
                "register_vm",
                CONTROL,
                lambda span: agent.call(
                    "register_vm", costs.host_register_vm_s, span=span, task=task
                ),
                tag=PHASE_AGENT,
            )
            yield from self.timed(
                server,
                task,
                "inventory_commit",
                CONTROL,
                lambda span: server.database.write(rows=3 + len(vm.disks), span=span),
                tag=PHASE_DB,
            )
            vm.place_on(self.target_host)

            yield from self.timed(
                server,
                task,
                "commit",
                CONTROL,
                lambda span: server.cpu_work(costs.result_commit_s, span=span),
                tag=PHASE_CPU,
            )
            task.result = vm
        finally:
            scope.release(grants)

    # -- disk materialization ---------------------------------------------------

    def _materialize_linked(
        self, server: "ManagementServer", task: "Task", agent
    ) -> typing.Generator[typing.Any, typing.Any, VirtualMachine]:
        costs = server.costs
        if not has_clone_anchor(self.source):
            # Snapshot the source to create anchors: a host-agent call plus
            # the snapshot's inventory rows — control-plane work that full
            # clones of templates never pay but self-service linked clones
            # of running VMs do.
            yield from self.timed(
                server,
                task,
                "anchor_snapshot",
                CONTROL,
                lambda span: agent.call(
                    "snapshot", costs.host_snapshot_s, span=span, task=task
                ),
                tag=PHASE_AGENT,
            )
            yield from self.timed(
                server,
                task,
                "anchor_db",
                CONTROL,
                lambda span: server.database.write(rows=2, span=span),
                tag=PHASE_DB,
            )
        anchors = ensure_clone_anchor(self.source)
        vm = self._new_vm(server)
        for index, (disk, anchor) in enumerate(zip(self.source.disks, anchors)):
            yield from self.timed(
                server,
                task,
                f"create_delta_{index}",
                CONTROL,
                lambda span: agent.call(
                    "create_disk", costs.host_create_disk_s, span=span, task=task
                ),
                tag=PHASE_AGENT,
            )
            # Delta creation moves no bytes, but it still needs the target
            # datastore's storage stack to accept the format metadata:
            # consult the copy-path fault hook (keyed by datastore) so
            # outages and copy flakiness gate linked clones too, without
            # charging any data-plane time.
            faults = server.copy_engine.faults
            if faults.armed:
                faults.fire(key=self.target_datastore.entity_id)
            backing = create_linked_backing(anchor, self.target_datastore)
            vm.attach_disk(
                VirtualDisk(
                    label=disk.label,
                    backing=backing,
                    provisioned_gb=disk.provisioned_gb,
                )
            )
        return vm

    def _materialize_full(
        self, server: "ManagementServer", task: "Task", agent
    ) -> typing.Generator[typing.Any, typing.Any, VirtualMachine]:
        costs = server.costs
        vm = self._new_vm(server)
        for index, disk in enumerate(self.source.disks):
            yield from self.timed(
                server,
                task,
                f"create_disk_{index}",
                CONTROL,
                lambda span: agent.call(
                    "create_disk", costs.host_create_disk_s, span=span, task=task
                ),
                tag=PHASE_AGENT,
            )
            size_gb = disk.backing.logical_size_gb
            yield from self.timed(
                server,
                task,
                f"copy_disk_{index}",
                DATA,
                lambda span, size=size_gb, source_ds=disk.datastore: (
                    server.copy_scheduler.scheduled_copy(
                        source_ds, self.target_datastore, size, span=span
                    )
                ),
                tag=PHASE_COPY,
            )
            from repro.datacenter.vm import DiskBacking

            vm.attach_disk(
                VirtualDisk(
                    label=disk.label,
                    backing=DiskBacking(
                        datastore=self.target_datastore, size_gb=size_gb
                    ),
                    provisioned_gb=disk.provisioned_gb,
                )
            )
        return vm

    def _new_vm(self, server: "ManagementServer") -> VirtualMachine:
        return server.inventory.create(
            VirtualMachine,
            name=self.name,
            vcpus=self.source.vcpus,
            memory_gb=self.source.memory_gb,
            created_at=server.sim.now,
        )

    # -- crash recovery ---------------------------------------------------------
    #
    # Ground truth for a clone is the inventory: a crash-interrupted attempt
    # may have left a registered-and-placed VM (done), a registered but
    # never-placed VM (half-done), or nothing. Matching is by target name —
    # the clone's natural idempotency key.

    def _leftovers(self, server: "ManagementServer") -> list[VirtualMachine]:
        return [
            vm
            for vm in server.inventory.all(VirtualMachine)
            if vm.name == self.name
        ]

    def _is_complete(self, vm: VirtualMachine) -> bool:
        return vm.host is not None

    def recovery_probe(self, server: "ManagementServer", task: "Task") -> str:
        leftovers = self._leftovers(server)
        if any(self._is_complete(vm) for vm in leftovers):
            return "complete"
        return "partial" if leftovers else "absent"

    def recovery_adopt(self, server: "ManagementServer", task: "Task") -> None:
        """Claim the placed VM; retire incomplete duplicates of it."""
        adopted = None
        for vm in self._leftovers(server):
            if adopted is None and self._is_complete(vm):
                adopted = vm
            elif not self._is_complete(vm):
                server.inventory.unregister(vm)
        task.result = adopted

    def recovery_rollback(self, server: "ManagementServer", task: "Task") -> None:
        """Undo half-done placements/registrations before a re-issue."""
        for vm in self._leftovers(server):
            if vm.host is not None:
                vm.evacuate()
            server.inventory.unregister(vm)


class DeployFromTemplate(Operation):
    """Self-service deploy: clone from a template, customize, power on.

    This is the unit of work the paper's clouds issue at high rate. The
    customization pass (guest identity, NIC mapping) is one more
    control-plane toll on top of the clone.
    """

    op_type = OperationType.DEPLOY

    def __init__(
        self,
        template: VirtualMachine,
        name: str,
        target_host: Host,
        target_datastore: Datastore,
        linked: bool,
    ) -> None:
        if not template.is_template:
            raise OperationError(f"{template.name!r} is not a template")
        self.clone = CloneVM(template, name, target_host, target_datastore, linked=linked)
        self.target_host = target_host
        self.linked = linked

    def run(self, server: "ManagementServer", task: "Task") -> typing.Generator:
        costs = server.costs
        yield from self.clone.run(server, task)
        vm = task.result
        agent = server.agent(self.target_host)
        yield from self.timed(
            server,
            task,
            "customize_cpu",
            CONTROL,
            lambda span: server.cpu_work(costs.config_gen_s, span=span),
            tag=PHASE_CPU,
        )
        yield from self.timed(
            server,
            task,
            "customize_host",
            CONTROL,
            lambda span: agent.call(
                "reconfigure", costs.host_reconfigure_s, span=span, task=task
            ),
            tag=PHASE_AGENT,
        )
        yield from self.timed(
            server,
            task,
            "customize_db",
            CONTROL,
            lambda span: server.database.write(rows=1, span=span),
            tag=PHASE_DB,
        )
        yield from self.timed(
            server,
            task,
            "power_on",
            CONTROL,
            lambda span: agent.call(
                "power_on", costs.host_power_on_s, span=span, task=task
            ),
            tag=PHASE_AGENT,
        )
        vm.power_state = PowerState.ON
        yield from self.timed(
            server,
            task,
            "power_on_db",
            CONTROL,
            lambda span: server.database.write(rows=1, span=span),
            tag=PHASE_DB,
        )
        task.result = vm

    # -- crash recovery ---------------------------------------------------------
    #
    # A deploy is complete only when its VM is placed *and* powered on; a
    # placed-but-off VM is a half-done deploy (customization or power-on
    # lost to the crash) and is rolled back rather than adopted.

    def _deploy_complete(self, vm) -> bool:
        return vm.host is not None and vm.power_state is PowerState.ON

    def recovery_probe(self, server: "ManagementServer", task: "Task") -> str:
        leftovers = self.clone._leftovers(server)
        if any(self._deploy_complete(vm) for vm in leftovers):
            return "complete"
        return "partial" if leftovers else "absent"

    def recovery_adopt(self, server: "ManagementServer", task: "Task") -> None:
        adopted = None
        for vm in self.clone._leftovers(server):
            if adopted is None and self._deploy_complete(vm):
                adopted = vm
            elif not self._deploy_complete(vm):
                if vm.host is not None:
                    vm.evacuate()
                server.inventory.unregister(vm)
        task.result = adopted

    def recovery_rollback(self, server: "ManagementServer", task: "Task") -> None:
        self.clone.recovery_rollback(server, task)
