"""Host powered-on totals against a fresh scan of the host's VMs.

``Host.powered_on_vms`` and ``Host.memory_in_use_gb`` are running totals
that ``VirtualMachine`` keeps as its power state, memory or host changes.
The scan below is the definition they replace; it lives only here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import HAManager
from repro.datacenter import Host, PowerState, VirtualMachine
from repro.operations import PowerOff, PowerOn

from tests.operations.conftest import SmallCloud

HOSTS = 3


def scan(host: Host) -> tuple[int, float]:
    on = [vm for vm in host.vms if vm.power_state == PowerState.ON]
    return len(on), sum(vm.memory_gb for vm in on)


def assert_totals(hosts: list[Host], vms: list[VirtualMachine]) -> None:
    for host in hosts:
        assert (host.powered_on_vms, host.memory_in_use_gb) == scan(host), host.name
        assert host.vms == {vm for vm in vms if vm.host is host}, host.name


def run(cloud: SmallCloud, generator) -> None:
    """Run a process-style generator to completion; failures are allowed."""

    def guard():
        try:
            yield from generator
        except Exception:
            pass

    cloud.sim.run(until=cloud.sim.spawn(guard()))


def wait(process):
    yield process


# Whole-MB guest sizes (1 MB .. 24 GB); host admission ignores direct writes.
memory = st.integers(min_value=1, max_value=24 * 1024).map(lambda mb: mb / 1024)
index = st.integers(min_value=0, max_value=63)
step = st.one_of(
    st.tuples(st.just("create"), memory, st.sampled_from(PowerState), index),
    st.tuples(st.just("place"), index, index),
    st.tuples(st.just("power"), index, st.sampled_from(PowerState)),
    st.tuples(st.just("power_op"), index, st.booleans()),
    st.tuples(st.just("memory"), index, memory),
    st.tuples(st.just("evacuate"), index),
    st.tuples(st.just("fail_host"), index),
)


@given(steps=st.lists(step, max_size=40))
@settings(max_examples=80, deadline=None)
def test_host_totals_match_a_fresh_scan(steps):
    cloud = SmallCloud(hosts=HOSTS)
    hosts = cloud.hosts
    ha = HAManager(cloud.server, cloud.cluster)
    vms: list[VirtualMachine] = []
    for kind, *args in steps:
        if kind == "create":
            # Built with its power state set, then placed (as the HA
            # exhibit seeds residents).
            size, state, target = args
            vm = cloud.server.inventory.create(
                VirtualMachine, name=f"t{len(vms)}", memory_gb=size, power_state=state
            )
            vm.place_on(hosts[target % HOSTS])
            vms.append(vm)
        elif not vms:
            continue
        elif kind == "place":
            vms[args[0] % len(vms)].place_on(hosts[args[1] % HOSTS])
        elif kind == "power":
            vms[args[0] % len(vms)].power_state = args[1]
        elif kind == "power_op":
            vm = vms[args[0] % len(vms)]
            operation = PowerOn(vm) if args[1] else PowerOff(vm)
            run(cloud, wait(cloud.server.submit(operation)))
        elif kind == "memory":
            vms[args[0] % len(vms)].memory_gb = args[1]
        elif kind == "evacuate":
            vms[args[0] % len(vms)].evacuate()
        elif kind == "fail_host":
            host = hosts[args[0] % HOSTS]
            run(cloud, ha.fail_host(host))
            ha.recover_host(host)
        assert_totals(hosts, vms)
    for vm in vms:
        vm.evacuate()
    assert_totals(hosts, vms)
    assert all(host.powered_on_vms == 0 and host.powered_on_mb == 0 for host in hosts)


def test_totals_sum_mb_sized_guests_exactly_in_any_order():
    # Whole-MB sizes: the integer total equals the float sum exactly,
    # whatever order the host's set iterates in.
    host = Host(entity_id="host-1", name="esx01")
    sizes = [0.5, 1.25, 3.0009765625, 7.75, 32.0]
    for number, size in enumerate(sizes):
        VirtualMachine(
            entity_id=f"vm-{number}", name=f"v{number}", memory_gb=size,
            power_state=PowerState.ON,
        ).place_on(host)
    assert host.memory_in_use_gb == sum(sizes) == sum(reversed(sizes))
    assert host.powered_on_mb == round(sum(sizes) * 1024)
