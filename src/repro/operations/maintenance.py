"""Host maintenance mode: the evacuate-then-service workflow.

Entering maintenance live-migrates every powered-on VM off the host (a
burst of vMotions through the control plane) and cold-relocates the rest,
then fences the host. Clouds patch hosts on a rolling cadence, so at
cloud scale this previously occasional workflow becomes routine — the
same dynamic as the paper's claim 4.
"""

from __future__ import annotations

import typing

from repro.datacenter.entities import Host, HostState
from repro.datacenter.vm import PowerState
from repro.operations.base import CONTROL, Operation, OperationError, OperationType
from repro.operations.migration import MigrateVM
from repro.tracing import PHASE_AGENT, PHASE_CPU, PHASE_DB

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.server import ManagementServer
    from repro.controlplane.task_manager import Task


class EnterMaintenance(Operation):
    """Evacuate a host and place it in maintenance mode.

    Powered-on VMs are live-migrated round-robin onto the other usable
    hosts (each migration is its own management task, dispatched through
    the normal pipeline); powered-off VMs are re-registered (cheap cold
    relocation). Fails if no evacuation target exists.
    """

    op_type = OperationType.ENTER_MAINTENANCE

    def __init__(self, host: Host, targets: typing.Sequence[Host]) -> None:
        self.host = host
        self.targets = [t for t in targets if t is not host]

    def run(self, server: "ManagementServer", task: "Task") -> typing.Generator:
        costs = server.costs
        if self.host.state != HostState.CONNECTED:
            raise OperationError(f"host {self.host.name!r} is {self.host.state.value}")
        usable_targets = [t for t in self.targets if t.is_usable]
        if self.host.vms and not usable_targets:
            raise OperationError(f"no evacuation target for {self.host.name!r}")
        yield from self.timed(
            server,
            task,
            "validate",
            CONTROL,
            lambda span: server.cpu_work(costs.api_validate_s, span=span),
            tag=PHASE_CPU,
        )
        victims = sorted(self.host.vms, key=lambda vm: vm.entity_id)
        migrations = []
        for index, vm in enumerate(victims):
            target = usable_targets[index % len(usable_targets)]
            if vm.power_state == PowerState.ON:
                migrations.append(
                    server.submit(MigrateVM(vm, target), priority=3.0, span=task.span)
                )
            else:
                # Cold relocation: unregister/register, no data movement.
                vm.place_on(target)
        for process in migrations:
            try:
                yield process
            except Exception:
                raise OperationError(
                    f"evacuation of {self.host.name!r} failed mid-way"
                ) from None
        if self.host.vms:
            # Anything still here is powered-off stragglers relocated above;
            # a populated host cannot be fenced.
            raise OperationError(f"host {self.host.name!r} still has VMs")
        self.host.state = HostState.MAINTENANCE
        yield from self.timed(
            server,
            task,
            "fence_db",
            CONTROL,
            lambda span: server.database.write(rows=1, span=span),
            tag=PHASE_DB,
        )
        task.result = self.host


class ExitMaintenance(Operation):
    """Return a host to service."""

    op_type = OperationType.EXIT_MAINTENANCE

    def __init__(self, host: Host) -> None:
        self.host = host

    def run(self, server: "ManagementServer", task: "Task") -> typing.Generator:
        costs = server.costs
        if self.host.state != HostState.MAINTENANCE:
            raise OperationError(f"host {self.host.name!r} is not in maintenance")
        yield from self.timed(
            server,
            task,
            "validate",
            CONTROL,
            lambda span: server.cpu_work(costs.api_validate_s, span=span),
            tag=PHASE_CPU,
        )
        agent = server.agent(self.host)
        self.host.state = HostState.CONNECTED
        yield from self.timed(
            server,
            task,
            "reconnect",
            CONTROL,
            lambda span: agent.call(
                "reconfigure", costs.host_reconfigure_s, span=span, task=task
            ),
            tag=PHASE_AGENT,
        )
        yield from self.timed(
            server,
            task,
            "unfence_db",
            CONTROL,
            lambda span: server.database.write(rows=1, span=span),
            tag=PHASE_DB,
        )
        task.result = self.host
