"""Unit tests for tenancy, quotas, catalogs, and vApps."""

import pytest

from repro.cloud import Catalog, CatalogItem, Organization, QuotaExceeded, User, VApp, VAppState


class TestOrganization:
    def test_charge_within_quota(self):
        org = Organization("acme", quota_vms=10, quota_storage_gb=100.0)
        org.charge(3, 30.0)
        assert org.used_vms == 3
        assert org.used_storage_gb == 30.0
        assert org.quota_vms - org.used_vms == 7

    def test_vm_quota_enforced(self):
        org = Organization("acme", quota_vms=2)
        org.charge(2, 1.0)
        with pytest.raises(QuotaExceeded, match="VMs exceeds"):
            org.charge(1, 1.0)

    def test_storage_quota_enforced(self):
        org = Organization("acme", quota_storage_gb=50.0)
        with pytest.raises(QuotaExceeded, match="storage"):
            org.charge(1, 60.0)

    def test_check_does_not_mutate(self):
        org = Organization("acme")
        org.check(5, 100.0)
        assert org.used_vms == 0

    def test_credit_floors_at_zero(self):
        org = Organization("acme")
        org.charge(2, 20.0)
        org.credit(5, 100.0)
        assert org.used_vms == 0
        assert org.used_storage_gb == 0.0

    def test_user_string(self):
        org = Organization("acme")
        user = User("alice", org)
        assert str(user) == "acme/alice"


class TestCatalog:
    def test_add_and_get(self):
        catalog = Catalog("public")
        item = CatalogItem("web", "medium-linux", linked=True)
        catalog.add(item)
        assert catalog.get("web") is item
        assert "web" in catalog
        assert len(catalog) == 1

    def test_duplicate_item_rejected(self):
        catalog = Catalog("public")
        catalog.add(CatalogItem("web", "medium-linux"))
        with pytest.raises(ValueError, match="already has item"):
            catalog.add(CatalogItem("web", "large-windows"))

    def test_missing_item_keyerror(self):
        with pytest.raises(KeyError, match="no item"):
            Catalog("public").get("ghost")

    def test_items_sorted_by_name(self):
        catalog = Catalog("public")
        for name in ("zeta", "alpha", "mid"):
            catalog.add(CatalogItem(name, "medium-linux"))
        assert [item.name for item in catalog.items()] == ["alpha", "mid", "zeta"]


class TestVApp:
    def make(self, requested=3):
        return VApp(name="app", org=Organization("acme"), requested_vms=requested)

    def test_settle_running(self):
        vapp = self.make()
        vapp.settle(failures=0)
        assert vapp.state == VAppState.RUNNING

    def test_settle_partial(self):
        vapp = self.make()
        vapp.settle(failures=1)
        assert vapp.state == VAppState.PARTIAL

    def test_settle_failed(self):
        vapp = self.make()
        vapp.settle(failures=3)
        assert vapp.state == VAppState.FAILED

    def test_deploy_latency_requires_deployment(self):
        vapp = self.make()
        with pytest.raises(RuntimeError):
            _ = vapp.deploy_latency
        vapp.requested_at = 10.0
        vapp.deployed_at = 25.0
        assert vapp.deploy_latency == 15.0
