"""Operation mixes: what fraction of the management workload each verb is.

The mixes encode the paper's claim-2 contrast. In self-service clouds the
log is dominated by provisioning churn (deploy/destroy and their power
operations); in a classic virtualized datacenter VMs are long-lived and
the log is dominated by power cycling, reconfiguration of existing VMs,
snapshots for backup windows, and DRS migrations, with provisioning rare.

Magnitudes follow the companion ISCA'10 study's characterization of
datacenter management workloads and public descriptions of
vCloud-Director-era self-service pools; they are documented inputs, not
measurements.
"""

from __future__ import annotations

import random
import typing

from repro.operations.base import OperationType


class OperationMix:
    """A normalized distribution over operation types."""

    def __init__(self, weights: dict[OperationType, float]) -> None:
        if not weights:
            raise ValueError("mix must have at least one operation type")
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("mix weights must sum to a positive value")
        if any(weight < 0 for weight in weights.values()):
            raise ValueError("mix weights must be non-negative")
        self.fractions: dict[OperationType, float] = {
            op: weight / total for op, weight in weights.items() if weight > 0
        }
        self._ops = sorted(self.fractions, key=lambda op: op.value)
        self._cumulative: list[float] = []
        running = 0.0
        for op in self._ops:
            running += self.fractions[op]
            self._cumulative.append(running)

    def sample(self, rng: random.Random) -> OperationType:
        draw = rng.random()
        for op, edge in zip(self._ops, self._cumulative):
            if draw <= edge:
                return op
        return self._ops[-1]

    def fraction(self, op: OperationType) -> float:
        return self.fractions.get(op, 0.0)

    def provisioning_fraction(self) -> float:
        return sum(
            fraction
            for op, fraction in self.fractions.items()
            if op in OperationType.provisioning()
        )

    def items(self) -> list[typing.Tuple[OperationType, float]]:
        return [(op, self.fractions[op]) for op in self._ops]


# Cloud A: a large internal dev/test self-service cloud. Extreme churn:
# nearly two-thirds of all operations are provisioning or its direct
# consequences, and reconfiguration is a visible steady-state component.
CLOUD_A_MIX = OperationMix(
    {
        OperationType.DEPLOY: 0.30,
        OperationType.DESTROY: 0.26,
        OperationType.POWER_ON: 0.10,
        OperationType.POWER_OFF: 0.10,
        OperationType.RECONFIGURE: 0.08,
        OperationType.SNAPSHOT_CREATE: 0.05,
        OperationType.SNAPSHOT_DELETE: 0.03,
        OperationType.MIGRATE: 0.03,
        OperationType.RESCAN_DATASTORE: 0.02,
        OperationType.ADD_DATASTORE: 0.01,
        OperationType.ADD_HOST: 0.01,
        OperationType.NETWORK_RECONFIG: 0.01,
    }
)

# Cloud B: a smaller production self-service cloud. Still
# provisioning-heavy but with longer-lived workloads, more migration
# (capacity balancing), and slightly less churn.
CLOUD_B_MIX = OperationMix(
    {
        OperationType.DEPLOY: 0.22,
        OperationType.DESTROY: 0.18,
        OperationType.POWER_ON: 0.13,
        OperationType.POWER_OFF: 0.12,
        OperationType.RECONFIGURE: 0.10,
        OperationType.SNAPSHOT_CREATE: 0.08,
        OperationType.SNAPSHOT_DELETE: 0.05,
        OperationType.MIGRATE: 0.06,
        OperationType.RESCAN_DATASTORE: 0.03,
        OperationType.ADD_DATASTORE: 0.01,
        OperationType.ADD_HOST: 0.01,
        OperationType.NETWORK_RECONFIG: 0.01,
    }
)

# Classic virtualized datacenter: long-lived VMs, human-paced change.
# Power cycling, reconfiguration, backup snapshots, and DRS migrations
# dominate; provisioning and infrastructure reconfiguration are rare.
CLASSIC_DC_MIX = OperationMix(
    {
        OperationType.POWER_ON: 0.22,
        OperationType.POWER_OFF: 0.20,
        OperationType.RECONFIGURE: 0.16,
        OperationType.SNAPSHOT_CREATE: 0.12,
        OperationType.SNAPSHOT_DELETE: 0.08,
        OperationType.MIGRATE: 0.12,
        OperationType.DEPLOY: 0.04,
        OperationType.DESTROY: 0.03,
        OperationType.RESCAN_DATASTORE: 0.02,
        OperationType.ADD_HOST: 0.005,
        OperationType.ADD_DATASTORE: 0.003,
        OperationType.NETWORK_RECONFIG: 0.002,
    }
)
