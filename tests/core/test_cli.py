"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "cloud_a" in out
    assert "R-F3" in out


def test_experiment_command(capsys):
    assert main(["experiment", "R-T1", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "R-T1" in out
    assert "classic_dc" in out


def test_storm_command(capsys):
    assert main(["storm", "--clones", "8", "--concurrency", "4", "--hosts", "4"]) == 0
    out = capsys.readouterr().out
    assert "linked storm: 8 clones" in out
    assert "bottleneck" in out


def test_storm_full_mode(capsys):
    assert main(["storm", "--clones", "2", "--full", "--hosts", "2"]) == 0
    out = capsys.readouterr().out
    assert "full storm" in out
    assert "data written: 80 GB" in out


def test_profile_command_with_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    assert (
        main(
            [
                "profile",
                "classic_dc",
                "--hours",
                "0.5",
                "--seed",
                "2",
                "--trace-out",
                str(trace_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Operation mix" in out
    assert trace_path.exists()
    from repro.traces import read_csv

    assert isinstance(read_csv(trace_path), list)


def test_profile_trace_bad_extension(tmp_path, capsys):
    code = main(
        ["profile", "classic_dc", "--hours", "0.1", "--trace-out", str(tmp_path / "t.xml")]
    )
    assert code == 2


def test_unknown_profile_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["profile", "not-a-cloud"])


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "R-F99"])


def test_recover_command(capsys):
    assert main(["recover", "--clones", "8", "--concurrency", "3", "--crash-at", "3"]) == 0
    out = capsys.readouterr().out
    assert "linked storm: 8 clones" in out
    assert "crash #1 at 3.0s" in out
    assert "exactly-once invariant: held" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["recover", "--clones", "0"],
        ["recover", "--concurrency", "0"],
        ["federation", "--crash-at", "5", "--downtime", "0"],
        ["federation", "--fault", "drop", "--rate", "0"],
        ["bus", "--fault", "drop", "--rate", "0"],
        ["bus", "--fault", "delay", "--fault-duration", "0"],
        ["faults", "--rate", "0"],
        ["faults", "--rate", "-1"],
        ["metrics", "--rate", "0"],
        ["metrics", "--interval", "0"],
    ],
)
def test_bad_fault_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_faults_command(capsys):
    assert main(["faults", "--duration", "120"]) == 0
    out = capsys.readouterr().out
    assert "fault timeline:" in out
    assert "offered:" in out and "dead letters:  0" in out
    assert "exactly-once invariant: held" in out


def test_metrics_command(capsys):
    assert main(["metrics", "--duration", "120"]) == 0
    out = capsys.readouterr().out
    assert "alerts" in out
    assert "exactly-once invariant: held" in out


@pytest.mark.parametrize("flag", ["--seeds", "--points", "--total", "--concurrency"])
def test_chaos_sweep_refuses_empty_sweep(flag, capsys):
    from repro.faults import chaos

    assert chaos.main([flag, "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "held" not in captured.out


def test_chaos_sweep_summary(capsys):
    from repro.faults import chaos

    assert chaos.main(["--seeds", "1", "--points", "2", "--total", "4"]) == 0
    out = capsys.readouterr().out
    assert "crash sweep: 2 fault points across 1 seeds" in out
    assert "parked" in out and "mttr_s" in out
    assert "exactly-once invariant held at every fault point" in out
