"""Fixtures for cloud-layer tests: a director over the small cloud."""

import pytest

from repro.cloud import Catalog, CatalogItem, CloudDirector, Organization, PlacementEngine

from tests.operations.conftest import SmallCloud


class SelfServiceCloud(SmallCloud):
    """SmallCloud plus the self-service layer."""

    def __init__(self, seed=42, **kw):
        super().__init__(seed=seed, **kw)
        self.catalog = Catalog("public")
        self.catalog.add(CatalogItem("web-linked", "medium-linux", linked=True))
        self.catalog.add(CatalogItem("web-full", "medium-linux", linked=False))
        self.org = Organization("acme", quota_vms=200, quota_storage_gb=50_000.0)
        self.director = CloudDirector(
            self.server,
            self.cluster,
            self.library,
            self.catalog,
            placement=PlacementEngine(),
        )

    def run_deploy(self, request):
        box = {}

        def proc():
            box["vapp"] = yield from self.director.deploy(request)

        process = self.sim.spawn(proc())
        self.sim.run(until=process)
        return box["vapp"]

    def run_delete(self, vapp):
        def proc():
            yield from self.director.delete(vapp)

        process = self.sim.spawn(proc())
        self.sim.run(until=process)


@pytest.fixture
def cloud():
    return SelfServiceCloud()
