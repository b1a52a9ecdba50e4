"""The self-service cloud layer (vCloud-Director-style).

Tenants deploy vApps from catalogs through a :class:`CloudDirector`, which
translates every self-service request into streams of management
operations against the control plane. Elasticity policies watch capacity
and trigger infrastructure reconfiguration — the mechanism by which cloud
provisioning rates drag "previously infrequent" operations into the hot
path (the paper's claim 4).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.cloud.api": ("AdmissionShed", "ApiGateway", "Session", "SessionError"),
        "repro.cloud.catalog": ("Catalog", "CatalogItem"),
        "repro.cloud.director": ("CloudDirector", "DeployRequest"),
        "repro.cloud.drs": ("LoadBalancer",),
        "repro.cloud.elasticity": ("ElasticityPolicy", "SparePool"),
        "repro.cloud.federation": ("FederatedCloud",),
        "repro.cloud.ha": ("HAManager",),
        "repro.cloud.placement": ("PlacementEngine", "PlacementError"),
        "repro.cloud.tenancy": ("Organization", "QuotaExceeded", "User"),
        "repro.cloud.vapp": ("VApp", "VAppState"),
    },
)

__all__ = [
    "AdmissionShed",
    "ApiGateway",
    "Catalog",
    "CatalogItem",
    "CloudDirector",
    "DeployRequest",
    "ElasticityPolicy",
    "FederatedCloud",
    "HAManager",
    "LoadBalancer",
    "Organization",
    "PlacementEngine",
    "PlacementError",
    "QuotaExceeded",
    "Session",
    "SessionError",
    "SparePool",
    "User",
    "VApp",
    "VAppState",
]
