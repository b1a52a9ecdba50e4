"""Multi-tenancy: organizations, users, and quotas."""

from __future__ import annotations

import dataclasses


class QuotaExceeded(Exception):
    """An organization asked for more than its allocation."""


@dataclasses.dataclass
class Organization:
    """A tenant with VM-count and storage quotas."""

    name: str
    quota_vms: int = 100
    quota_storage_gb: float = 10_000.0
    used_vms: int = 0
    used_storage_gb: float = 0.0

    def check(self, vms: int, storage_gb: float) -> None:
        """Raise :class:`QuotaExceeded` if the request would overshoot."""
        if self.used_vms + vms > self.quota_vms:
            raise QuotaExceeded(
                f"org {self.name!r}: {self.used_vms}+{vms} VMs exceeds "
                f"quota {self.quota_vms}"
            )
        if self.used_storage_gb + storage_gb > self.quota_storage_gb:
            raise QuotaExceeded(
                f"org {self.name!r}: storage {self.used_storage_gb + storage_gb:.0f} GB "
                f"exceeds quota {self.quota_storage_gb:.0f} GB"
            )

    def charge(self, vms: int, storage_gb: float) -> None:
        self.check(vms, storage_gb)
        self.used_vms += vms
        self.used_storage_gb += storage_gb

    def credit(self, vms: int, storage_gb: float) -> None:
        self.used_vms = max(0, self.used_vms - vms)
        self.used_storage_gb = max(0.0, self.used_storage_gb - storage_gb)


@dataclasses.dataclass(frozen=True)
class User:
    """A member of an organization (attribution in traces)."""

    name: str
    org: Organization

    def __str__(self) -> str:
        return f"{self.org.name}/{self.name}"
