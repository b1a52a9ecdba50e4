"""Cloud profiles: the calibrated stand-ins for the paper's two setups.

The paper analyzed logs from two real self-service clouds it could not
publish. Each profile below fixes the infrastructure shape, tenancy,
arrival process, operation mix, lifetime model, and provisioning mode so
that the *same analysis pipeline* the paper ran over production logs runs
here over synthetic ones. Parameter rationale is inline; DESIGN.md
records the substitution argument.
"""

from __future__ import annotations

import dataclasses

from repro.workloads.arrivals import ArrivalProcess, DiurnalPoisson, MMPPBurst, Poisson
from repro.workloads.lifetimes import (
    CLASSIC_DC_LIFETIME,
    CLOUD_A_LIFETIME,
    CLOUD_B_LIFETIME,
    LifetimeModel,
)
from repro.workloads.mixes import CLASSIC_DC_MIX, CLOUD_A_MIX, CLOUD_B_MIX, OperationMix


@dataclasses.dataclass(frozen=True)
class CloudProfile:
    """Everything needed to instantiate and drive one cloud setup."""

    name: str
    description: str

    # Infrastructure shape.
    hosts: int
    datastores: int
    datastore_capacity_gb: float
    orgs: int

    # Workload.
    mix: OperationMix
    lifetime: LifetimeModel
    arrivals: ArrivalProcess
    linked_clone_fraction: float   # fraction of deploys using linked clones
    vapp_size_mean: float          # mean VMs per deploy request

    # Initial population (pre-provisioned before the measured window).
    initial_vms_per_host: int = 4

    def __post_init__(self) -> None:
        if self.hosts < 1 or self.datastores < 1 or self.orgs < 1:
            raise ValueError("hosts, datastores, and orgs must be >= 1")
        if not 0.0 <= self.linked_clone_fraction <= 1.0:
            raise ValueError("linked_clone_fraction must be in [0, 1]")
        if self.vapp_size_mean < 1.0:
            raise ValueError("vapp_size_mean must be >= 1")


CLOUD_A = CloudProfile(
    name="cloud_a",
    description=(
        "Large internal dev/test self-service cloud: heavy churn, strongly "
        "diurnal arrivals, short VM lifetimes, linked clones throughout."
    ),
    hosts=32,
    datastores=8,
    datastore_capacity_gb=40_000.0,
    orgs=12,
    mix=CLOUD_A_MIX,
    lifetime=CLOUD_A_LIFETIME,
    # ~1 op every 12 s at the diurnal peak: a busy self-service portal.
    arrivals=DiurnalPoisson(base_rate=1 / 20.0, amplitude=0.7),
    linked_clone_fraction=0.95,
    vapp_size_mean=3.0,
    initial_vms_per_host=6,
)

CLOUD_B = CloudProfile(
    name="cloud_b",
    description=(
        "Smaller production self-service cloud: steadier arrivals with "
        "batch bursts, day-scale lifetimes, mostly linked clones."
    ),
    hosts=16,
    datastores=6,
    datastore_capacity_gb=30_000.0,
    orgs=6,
    mix=CLOUD_B_MIX,
    lifetime=CLOUD_B_LIFETIME,
    # Calm ~1/90 s with bursts to ~1/8 s (batch deployments).
    arrivals=MMPPBurst(
        calm_rate=1 / 90.0,
        burst_rate=1 / 8.0,
        mean_calm_s=3_600.0,
        mean_burst_s=600.0,
    ),
    linked_clone_fraction=0.80,
    vapp_size_mean=2.0,
    initial_vms_per_host=5,
)

CLASSIC_DC = CloudProfile(
    name="classic_dc",
    description=(
        "Classic virtualized datacenter baseline: long-lived VMs, "
        "human-paced operations, full clones on the rare provision."
    ),
    hosts=24,
    datastores=6,
    datastore_capacity_gb=30_000.0,
    orgs=1,
    mix=CLASSIC_DC_MIX,
    lifetime=CLASSIC_DC_LIFETIME,
    # Human-paced administration: ~1 op every 5 minutes.
    arrivals=Poisson(rate=1 / 300.0),
    linked_clone_fraction=0.05,
    vapp_size_mean=1.0,
    initial_vms_per_host=8,
)

ALL_PROFILES = (CLOUD_A, CLOUD_B, CLASSIC_DC)
