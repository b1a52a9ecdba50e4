"""Coverage of small public-surface paths not hit elsewhere."""

import pytest

from repro.operations import CloneVM, DeleteSnapshot, OperationError, OperationType

from tests.operations.conftest import SmallCloud


def test_operation_type_families_are_disjoint():
    provisioning = OperationType.provisioning()
    reconfiguration = {
        OperationType.RESCAN_DATASTORE,
        OperationType.ADD_HOST,
        OperationType.ADD_DATASTORE,
        OperationType.NETWORK_RECONFIG,
        OperationType.ENTER_MAINTENANCE,
        OperationType.EXIT_MAINTENANCE,
    }
    assert not provisioning & reconfiguration
    assert OperationType.DEPLOY in provisioning


def test_operation_repr_mentions_type():
    cloud = SmallCloud()
    op = CloneVM(cloud.template, "x", cloud.hosts[0], cloud.datastores[0], linked=True)
    assert "clone_linked" in repr(op)


def test_delete_snapshot_rejects_negative_written():
    cloud = SmallCloud()
    vm = cloud.run_op(
        CloneVM(cloud.template, "v", cloud.hosts[0], cloud.datastores[0], linked=True)
    ).result
    with pytest.raises(OperationError):
        DeleteSnapshot(vm, written_gb=-1.0)


def test_phase_helper_rejects_unknown_plane():
    from repro.operations.base import phase

    cloud = SmallCloud()
    task = type("T", (), {"phases": []})()

    def proc():
        with pytest.raises(ValueError, match="unknown plane"):
            yield from phase(task, "x", "quantum", cloud.sim, iter(()))
        yield cloud.sim.timeout(0.0)

    cloud.sim.run(until=cloud.sim.spawn(proc()))


def test_server_submit_returns_the_task():
    cloud = SmallCloud()
    op = CloneVM(cloud.template, "x", cloud.hosts[0], cloud.datastores[0], linked=True)
    task = cloud.sim.run(until=cloud.server.submit(op))
    assert task.result.name == "x"


def test_server_datastores_listing():
    cloud = SmallCloud()
    names = {ds.name for ds in cloud.server.datastores()}
    assert names == {"lun00", "lun01"}


def test_profile_result_report_handles_empty_window():
    import dataclasses

    from repro import Scenario, profiles
    from repro.workloads.arrivals import Poisson

    sleepy = dataclasses.replace(
        profiles.CLASSIC_DC,
        hosts=2,
        datastores=2,
        initial_vms_per_host=0,
        arrivals=Poisson(rate=1e-9),
    )
    result = Scenario(sleepy, duration_s=60.0, seed=1).run()
    report = result.report()
    assert "operations: 0" in report
    assert result.trace == []
    assert result.failure_rate() == 0.0


def test_cli_profile_jsonl_trace(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "t.jsonl"
    assert (
        main(["profile", "classic_dc", "--hours", "0.2", "--trace-out", str(out)]) == 0
    )
    from repro.traces import read_jsonl

    assert isinstance(read_jsonl(out), list)


def test_experiment_result_render_with_notes_and_series():
    from repro.core.experiments import ExperimentResult

    result = ExperimentResult(
        exp_id="X",
        title="t",
        headers=["a"],
        rows=[["1"]],
        series={"s": [(0.0, 1.0)]},
        notes="careful",
    )
    text = result.render()
    assert "note: careful" in text
    assert "s" in text
