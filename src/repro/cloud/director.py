"""The cloud director: the self-service API over the control plane.

Each tenant deploy request fans out into per-VM DeployFromTemplate
operations; each delete into power-off + destroy pairs. The director is
where the paper's workload multiplier lives: one click, many management
operations.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.cloud.catalog import Catalog, CatalogItem
from repro.cloud.placement import PlacementEngine, PlacementError
from repro.cloud.tenancy import Organization
from repro.cloud.vapp import VApp, VAppState
from repro.datacenter.entities import Cluster
from repro.datacenter.templates import TemplateLibrary
from repro.datacenter.vm import PowerState
from repro.operations.provisioning import DeployFromTemplate
from repro.operations.lifecycle import DestroyVM
from repro.operations.power import PowerOff
from repro.operations.base import OperationError
from repro.sim.events import AllOf
from repro.sim.stats import CounterView, LatencyRecorder
from repro.controlplane.resilience import RetryPolicy
from repro.controlplane.server import ManagementServer
from repro.faults.errors import ServerCrashed, TransientError
from repro.storage.copy_engine import CopyFailed
from repro.tracing import PHASE_REQUEST, PHASE_RETRY


#: The per-VM retry policy a director uses unless given one: one
#: re-placement after backoff. Deploy retries also cover
#: :class:`OperationError`: a host flapping between placement and
#: execution surfaces as a precondition failure, and re-placement
#: elsewhere is exactly the right response.
DEPLOY_RETRY_POLICY = RetryPolicy(
    max_attempts=2,
    base_backoff_s=2.0,
    backoff_multiplier=2.0,
    max_backoff_s=30.0,
    jitter=0.5,
    retry_on=(TransientError, OperationError),
)


@dataclasses.dataclass
class DeployRequest:
    """A tenant's request: N instances of a catalog item as one vApp."""

    org: Organization
    item: CatalogItem
    vm_count: int
    vapp_name: str

    def __post_init__(self) -> None:
        if self.vm_count < 1:
            raise ValueError("vm_count must be >= 1")


class CloudDirector:
    """Self-service facade: deploy/delete vApps against one cluster."""

    def __init__(
        self,
        server: ManagementServer,
        cluster: Cluster,
        library: TemplateLibrary,
        catalog: Catalog,
        placement: PlacementEngine | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.server = server
        self.sim = server.sim
        self.cluster = cluster
        self.library = library
        self.catalog = catalog
        self.placement = placement or PlacementEngine()
        # The per-VM retry policy; the attribute is mutable for ablations.
        self.retry_policy = retry_policy if retry_policy is not None else DEPLOY_RETRY_POLICY
        self._retry_rng = server.streams.stream(f"{server.name}:director-retry")
        # Requests and re-placements (examples and chaos sweeps read them)
        # and every settled vApp's deploy latency (its percentiles).
        self.deploy_requests = 0
        self.vm_requests = 0
        self.vm_retries = 0
        self.deploy_latency = LatencyRecorder("deploy_latency")
        # perfbench/workloads.py reads ``metrics.counter("deploy_requests")``;
        # this read-only view over the attributes keeps that read working.
        self.metrics = CounterView(self)
        self.vapps: list[VApp] = []
        # The vApps not yet being deleted, in deploy order, keyed by id()
        # because VApp is an unhashable dataclass; running_vapps() filters
        # this instead of every vApp ever deployed.
        self._live: dict[int, VApp] = {}
        # Gateway→director hop: on a mediated bus the director consumes
        # deploy requests from its topic (see ApiGateway.submit_deploy);
        # with direct calls the topic never exists.
        self._deploy_topic = None
        if server.bus.mediated:
            self.attach_bus(server.bus)
        # Telemetry handles from the server's hub (NULL_METRIC when disabled).
        telemetry = server.telemetry
        self._t_deploys = telemetry.counter("director_deploys_total")
        self._t_vm_failures = telemetry.counter("director_vm_failures_total")
        self._t_vm_retries = telemetry.counter("director_vm_retries_total")
        self._t_placement_failures = telemetry.counter(
            "director_placement_failures_total"
        )
        self._t_deploy_latency = telemetry.histogram("director_deploy_latency_s")

    def attach_bus(self, bus) -> None:
        """Subscribe the deploy topic and start the consumer (mediated)."""
        if self._deploy_topic is not None:
            raise RuntimeError("director already attached to a bus")
        self._deploy_topic = bus.subscribe(f"director.deploys:{self.server.name}")
        self.sim.spawn(self._serve_deploys(bus), name="director:bus-deploy-consumer")

    @property
    def deploy_topic_name(self) -> str:
        if self._deploy_topic is None:
            raise RuntimeError("director is not attached to a bus")
        return self._deploy_topic.name

    def _serve_deploys(self, bus) -> typing.Generator:
        """Drain deploy requests; duplicates are suppressed by key.

        The director is a separate tier from the management server, so
        handlers are *not* crash-interruptible — a server crash surfaces
        to the handler as a failed submit, which the per-VM retry loop
        already masks.
        """
        topic = self._deploy_topic
        while True:
            message = yield topic.get()
            if not bus.accept(message):
                continue
            request = message.payload
            handler = self.sim.spawn(
                self.deploy(request),
                name=f"director:deploy-handler:{request.vapp_name}",
            )
            bus.bridge(handler, message)

    def _tripped_hosts(self) -> set[str]:
        """Hosts whose agent circuit breaker is currently open."""
        agents = self.server.agents_by_host
        out: set[str] = set()
        for host in self.cluster.hosts:
            agent = agents.get(host.entity_id)
            if agent is not None and agent.breaker is not None and agent.breaker.engaged:
                out.add(host.entity_id)
        return out

    # -- deploy ----------------------------------------------------------------

    def deploy(
        self, request: DeployRequest
    ) -> typing.Generator[typing.Any, typing.Any, VApp]:
        """Process-style: deploy a vApp; returns it (state settled).

        Quota and placement failures raise before any operation is issued;
        per-VM operation failures leave the vApp PARTIAL/FAILED.
        """
        template = self.library.get(request.item.template_name)
        storage_per_vm = (
            template.total_disk_gb if not request.item.linked else 1.0
        )
        request.org.charge(request.vm_count, storage_per_vm * request.vm_count)

        vapp = VApp(
            name=request.vapp_name,
            org=request.org,
            requested_vms=request.vm_count,
            requested_at=self.sim.now,
            state=VAppState.DEPLOYING,
            storage_charge_per_vm=storage_per_vm,
        )
        self.vapps.append(vapp)
        self._live[id(vapp)] = vapp
        self.deploy_requests += 1
        self.vm_requests += request.vm_count

        request_span = self.server.tracer.start_trace(
            f"deploy.{vapp.name}",
            phase=PHASE_REQUEST,
            tags={"org": request.org.name, "vms": request.vm_count},
        )
        workers = [
            self.sim.spawn(
                self._deploy_one(
                    request, template, vapp, index, storage_per_vm, request_span
                ),
                name=f"deploy:{vapp.name}:{index}",
            )
            for index in range(request.vm_count)
        ]
        yield AllOf(self.sim, workers)

        failures = 0
        for worker in workers:
            vm = worker.value
            if vm is None:
                failures += 1
            else:
                vapp.vms.append(vm)
        if failures:
            request.org.credit(failures, storage_per_vm * failures)
            self._t_vm_failures.add(failures)
        vapp.deployed_at = self.sim.now
        vapp.settle(failures)
        request_span.annotate("failures", failures)
        request_span.finish(error="DeployFailed" if failures else None)
        self.deploy_latency.record(vapp.deploy_latency)
        self._t_deploys.add()
        self._t_deploy_latency.observe(
            vapp.deploy_latency,
            trace_id=None if request_span.is_null else request_span.trace_id,
        )
        return vapp

    def _deploy_one(
        self,
        request: DeployRequest,
        template,
        vapp: VApp,
        index: int,
        storage_per_vm: float,
        request_span,
    ) -> typing.Generator[typing.Any, typing.Any, typing.Any]:
        """One member VM's deploy with policy-driven re-placement retries.

        Each retry backs off per the :class:`RetryPolicy` (no immediate
        re-submission hammering a saturated plane) and excludes hosts that
        already failed this VM, so re-placement actually moves — matching
        how self-service portals mask transient faults from tenants.
        Returns the VM, or None after exhausting retries.
        """
        vm_span = (
            request_span.child(f"vm-{index}", phase=PHASE_REQUEST)
            if not request_span.is_null
            else request_span
        )
        try:
            result = yield from self._deploy_one_traced(
                request, template, vapp, index, storage_per_vm, vm_span
            )
        except BaseException as exc:
            vm_span.finish(error=type(exc).__name__)
            raise
        vm_span.finish(error=None if result is not None else "DeployFailed")
        return result

    def _deploy_one_traced(
        self,
        request: DeployRequest,
        template,
        vapp: VApp,
        index: int,
        storage_per_vm: float,
        vm_span,
    ) -> typing.Generator[typing.Any, typing.Any, typing.Any]:
        policy = self.retry_policy
        excluded: set[str] = set()
        excluded_ds: set[str] = set()
        for attempt in range(policy.max_attempts):
            # Breaker-aware placement: a host whose agent breaker is open
            # would only fast-fail this attempt — steer around it up front
            # instead of discovering the outage one rejection at a time.
            tripped = self._tripped_hosts()
            host = datastore = None
            tiers: list[set[str]] = []
            for tier in (excluded | tripped, excluded, set()):
                if tier not in tiers:
                    tiers.append(tier)
            for exclude in tiers:
                # Every candidate excluded is worse than retrying a
                # known-bad host: relax the exclusions tier by tier.
                try:
                    host, datastore = self.placement.choose(
                        self.cluster,
                        storage_per_vm,
                        memory_gb=template.memory_gb,
                        exclude_hosts=exclude,
                        exclude_datastores=excluded_ds,
                    )
                    break
                except PlacementError:
                    continue
            if host is None:
                self._t_placement_failures.add()
                return None
            name = f"{vapp.name}-vm{index}"
            if attempt:
                name = f"{name}-r{attempt}"
                self.vm_retries += 1
                self._t_vm_retries.add()
            operation = DeployFromTemplate(
                template, name, host, datastore, linked=request.item.linked
            )
            vm_span.annotate("host", host.name)
            vm_span.annotate("attempts", attempt + 1)
            try:
                # submit raises ServerCrashed synchronously while the
                # management server is down — same retry path as a task
                # that failed mid-flight.
                process = self.server.submit(operation, span=vm_span)
                task = yield process
            except Exception as error:
                # Attribute the failure to the resource that caused it:
                # a copy fault is pinned to the datastore, not the host;
                # a server crash indicts neither.
                if isinstance(error, CopyFailed):
                    excluded_ds.add(datastore.entity_id)
                elif not isinstance(error, ServerCrashed):
                    excluded.add(host.entity_id)
                if attempt + 1 >= policy.max_attempts or not policy.retryable(error):
                    return None
                delay = policy.backoff_s(attempt + 1, self._retry_rng)
                if delay > 0:
                    backoff_span = (
                        vm_span.child(
                            "replacement.backoff", phase=PHASE_RETRY, tags={"wait": True}
                        )
                        if not vm_span.is_null
                        else vm_span
                    )
                    yield self.sim.timeout(delay)
                    backoff_span.finish()
                continue
            return task.result
        return None

    # -- delete -----------------------------------------------------------------

    def delete(self, vapp: VApp) -> typing.Generator[typing.Any, typing.Any, VApp]:
        """Process-style: power off and destroy every member VM.

        Idempotent under concurrency: a delete that races an in-flight
        delete of the same vApp is a no-op; deleting an already-deleted
        vApp is a caller error.
        """
        if vapp.state == VAppState.DELETED:
            raise ValueError(f"vApp {vapp.name!r} already deleted")
        if vapp.state == VAppState.DELETING:
            return vapp
        vapp.state = VAppState.DELETING
        self._live.pop(id(vapp), None)
        for vm in vapp.vms:
            if vm.power_state == PowerState.ON:
                power_process = self.server.submit(PowerOff(vm))
                yield _swallow(self.sim, power_process)
            destroy_process = self.server.submit(DestroyVM(vm))
            yield _swallow(self.sim, destroy_process)
        vapp.org.credit(len(vapp.vms), vapp.storage_charge_per_vm * len(vapp.vms))
        vapp.state = VAppState.DELETED
        vapp.deleted_at = self.sim.now
        vapp.vms.clear()
        return vapp

    # -- reporting ---------------------------------------------------------------

    def running_vapps(self) -> list[VApp]:
        return [
            v for v in self._live.values()
            if v.state in (VAppState.RUNNING, VAppState.PARTIAL)
        ]

    def deploy_latency_p(self, fraction: float) -> float:
        return self.deploy_latency.percentile(fraction)


def _swallow(sim, process):
    """Wrap a process so a failure doesn't fail the AllOf (checked after)."""

    def guard():
        try:
            yield process
        except Exception:
            pass

    return sim.spawn(guard())
