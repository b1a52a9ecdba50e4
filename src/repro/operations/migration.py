"""Migration operations: vMotion (compute).

Live migration's data plane is the guest-memory transfer. It carries the
usual control-plane toll on top, paid at both the source and destination
host agents.
"""

from __future__ import annotations

import typing

from repro.datacenter.entities import Host
from repro.datacenter.vm import PowerState, VirtualMachine
from repro.operations.base import CONTROL, DATA, Operation, OperationError, OperationType
from repro.tracing import (
    PHASE_AGENT,
    PHASE_COPY,
    PHASE_CPU,
    PHASE_DB,
    PHASE_LOCK,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.server import ManagementServer
    from repro.controlplane.task_manager import Task


class MigrateVM(Operation):
    """vMotion: move a powered-on VM's compute to another host."""

    op_type = OperationType.MIGRATE

    def __init__(self, vm: VirtualMachine, destination: Host) -> None:
        self.vm = vm
        self.destination = destination

    def run(self, server: "ManagementServer", task: "Task") -> typing.Generator:
        costs = server.costs
        source = self.vm.host
        if source is None:
            raise OperationError(f"VM {self.vm.name!r} is not placed on a host")
        if source is self.destination:
            raise OperationError("source and destination hosts are the same")
        if self.vm.power_state != PowerState.ON:
            raise OperationError("vMotion requires a powered-on VM")
        if not self.destination.is_usable:
            raise OperationError(f"destination {self.destination.name!r} unusable")
        if not self.destination.can_admit(self.vm.memory_gb):
            raise OperationError(
                f"destination {self.destination.name!r} cannot admit "
                f"{self.vm.memory_gb:.0f} GB"
            )

        yield from self.timed(
            server,
            task,
            "validate",
            CONTROL,
            lambda span: server.cpu_work(costs.api_validate_s, span=span),
            tag=PHASE_CPU,
        )
        scope = server.locks.holding(
            [self.vm.entity_id],
            read_ids=[source.entity_id, self.destination.entity_id],
        )
        grants = yield from self.timed(
            server, task, "lock", CONTROL, scope.acquire(), tag=PHASE_LOCK
        )
        try:
            if self.vm.host is None:
                raise OperationError(f"VM {self.vm.name!r} was destroyed while queued")
            if self.vm.power_state != PowerState.ON:
                raise OperationError(f"VM {self.vm.name!r} powered off while queued")
            # Preparation handshake on both ends.
            for name, host in (("prep_source", source), ("prep_dest", self.destination)):
                yield from self.timed(
                    server,
                    task,
                    name,
                    CONTROL,
                    lambda span, h=host: server.agent(h).call(
                        "migrate_prep", costs.host_migrate_prep_s, span=span, task=task
                    ),
                    tag=PHASE_AGENT,
                )
            # Memory pre-copy: guest memory over the vMotion network.
            memory_bytes = self.vm.memory_gb * 1024**3
            yield from self.timed(
                server,
                task,
                "memory_copy",
                DATA,
                _fixed_transfer(server, memory_bytes / costs.vmotion_bps),
                tag=PHASE_COPY,
            )
            # Switchover + cleanup.
            yield from self.timed(
                server,
                task,
                "switchover",
                CONTROL,
                lambda span: server.agent(self.destination).call(
                    "migrate_prep", costs.host_migrate_prep_s, span=span, task=task
                ),
                tag=PHASE_AGENT,
            )
            self.vm.place_on(self.destination)
            yield from self.timed(
                server,
                task,
                "commit_db",
                CONTROL,
                lambda span: server.database.write(rows=2, span=span),
                tag=PHASE_DB,
            )
            task.result = self.vm
        finally:
            scope.release(grants)


def _fixed_transfer(server: "ManagementServer", seconds: float) -> typing.Generator:
    """A data-plane delay of fixed duration (dedicated-network transfer)."""
    yield server.sim.timeout(max(0.0, seconds))
    return seconds
