"""Unit tests for the characterization pipeline."""

import pytest

from repro.analysis import (
    arrival_rate_series,
    latency_by_type,
    latency_cdf,
    latency_stats,
    mix_comparison,
    operation_counts,
    operation_mix,
    phase_breakdown,
    plane_breakdown,
    render_series,
    render_table,
)
from repro.analysis.report import BAR_WIDTH, SERIES_POINTS
from repro.analysis.timeseries import peak_to_trough
from repro.traces import TraceRecord


def record(op="deploy", submitted=0.0, wait=1.0, service=4.0, control=2.0, data=1.0, success=True):
    return TraceRecord(
        op_type=op,
        submitted_at=submitted,
        started_at=submitted + wait,
        finished_at=submitted + wait + service,
        success=success,
        control_s=control,
        data_s=data,
    )


def storm_tasks(traced):
    """The succeeded tasks of a small storm: one full clone, two linked."""
    from repro.core.experiments import StormRig

    rig = StormRig(seed=0, hosts=2, datastores=2, traced=traced)
    for index in range(3):
        rig.server.submit(rig.clone_op(index, linked=index > 0))
    rig.sim.run()
    return rig.server.tasks.succeeded()


class TestMix:
    def test_counts_and_mix(self):
        records = [record("deploy"), record("deploy"), record("destroy"), record("power_on")]
        assert operation_counts(records) == {"deploy": 2, "destroy": 1, "power_on": 1}
        mix = operation_mix(records)
        assert mix["deploy"] == pytest.approx(0.5)
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_empty_mix(self):
        assert operation_mix([]) == {}

    def test_mix_comparison_rows_ordered_by_first_trace(self):
        traces = {
            "cloud": [record("deploy")] * 8 + [record("power_on")] * 2,
            "classic": [record("power_on")] * 9 + [record("deploy")],
        }
        headers, rows = mix_comparison(traces)
        assert headers == ["operation", "cloud (%)", "classic (%)"]
        assert rows[0][0] == "deploy"
        assert rows[0][1] == "80.0"
        assert rows[0][2] == "10.0"


class TestLatency:
    def test_stats(self):
        records = [record(service=s) for s in (1.0, 2.0, 3.0, 4.0, 5.0)]
        stats = latency_stats(records)
        assert stats["count"] == 5
        assert stats["p50"] == pytest.approx(4.0)  # wait 1 + service 3
        assert stats["max"] == pytest.approx(6.0)

    def test_empty_stats(self):
        assert latency_stats([])["count"] == 0

    def test_by_type_sorted_by_p50_descending(self):
        records = [record("slow", service=100.0), record("fast", service=1.0)]
        out = latency_by_type(records)
        assert list(out) == ["slow", "fast"]

    def test_cdf_monotone(self):
        records = [record(service=float(i)) for i in range(1, 50)]
        cdf = latency_cdf(records, points=10)
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)
        assert cdf[-1][1] == 1.0


class TestTimeseries:
    def test_arrival_series_bins(self):
        records = [record(submitted=t) for t in (0.0, 1.0, 2.0, 100.0)]
        series = arrival_rate_series(records, bin_s=10.0)
        assert series[0] == (0.0, pytest.approx(0.3))
        assert series[-1] == (100.0, pytest.approx(0.1))

    def test_peak_to_trough(self):
        assert peak_to_trough([(0, 1.0), (1, 4.0), (2, 2.0)]) == pytest.approx(4.0)
        assert peak_to_trough([]) == 0.0


class TestBreakdown:
    def test_plane_fractions_sum_to_one(self):
        records = [record(wait=1.0, service=4.0, control=2.0, data=1.0)]
        out = plane_breakdown(records)
        assert out["control"] == pytest.approx(2.0 / 5.0)
        assert out["data"] == pytest.approx(1.0 / 5.0)
        assert out["unattributed"] == pytest.approx(2.0 / 5.0)
        assert sum(out.values()) == pytest.approx(1.0)

    def test_empty_breakdown(self):
        out = plane_breakdown([])
        assert out == {"control": 0.0, "data": 0.0, "unattributed": 0.0}

    def test_by_type(self):
        """One op type's records split on their own, as R-F8 splits a
        deploy batch."""
        records = [record("a", data=0.0), record("b", control=0.0)]
        out = {
            op: plane_breakdown([r for r in records if r.op_type == op])
            for op in ("a", "b")
        }
        assert out["a"]["data"] == 0.0
        assert out["a"]["control"] == pytest.approx(2.0 / 5.0)
        assert out["b"]["control"] == 0.0
        assert out["b"]["data"] == pytest.approx(1.0 / 5.0)

    def test_phase_breakdown_reads_the_plane_tagged_spans(self):
        tasks = storm_tasks(traced=True)
        phases = phase_breakdown(tasks)
        assert [seconds for _, _, seconds in phases] == sorted(
            (seconds for _, _, seconds in phases), reverse=True
        )
        # copy_disk_0, copy_disk_1, ... fold into one row.
        assert ("copy_disk", "data") in {(name, plane) for name, plane, _ in phases}
        for plane in ("control", "data"):
            assert sum(s for _, p, s in phases if p == plane) == pytest.approx(
                sum(task.plane_seconds(plane) for task in tasks)
            )

    def test_phase_breakdown_names_an_untraced_task(self):
        tasks = storm_tasks(traced=False)
        with pytest.raises(ValueError, match=f"task {tasks[0].task_id} has no span tree"):
            phase_breakdown(tasks)


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        assert "long-name" in lines[3]

    def test_render_table_row_width_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            render_table(["a", "b"], [["only-one"]])

    def test_render_series_empty(self):
        assert "(empty)" in render_series("x", [])

    def test_render_series_bars_scale(self):
        text = render_series("rate", [(0.0, 1.0), (1.0, 2.0)])
        lines = text.splitlines()
        assert lines[1].count("#") == BAR_WIDTH // 2
        assert lines[2].count("#") == BAR_WIDTH

    def test_render_series_downsamples_keeping_the_last_point(self):
        pairs = [(float(x), 1.0) for x in range(3 * SERIES_POINTS + 2)]
        lines = render_series("rate", pairs).splitlines()[1:]
        assert len(lines) == SERIES_POINTS + 2
        assert lines[-1].split()[0] == f"{3 * SERIES_POINTS + 1:.1f}"


class TestExportSeriesCsv:
    def test_roundtrip_rows(self, tmp_path):
        import csv

        from repro.analysis.report import export_series_csv

        path = tmp_path / "series.csv"
        count = export_series_csv(
            {"a": [(1.0, 2.0), (2.0, 3.0)], "b": [(0.0, 1.0)]}, path
        )
        assert count == 3
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["series", "x", "y"]
        assert rows[1] == ["a", "1.0", "2.0"]
        assert rows[3] == ["b", "0.0", "1.0"]

    def test_empty_series(self, tmp_path):
        from repro.analysis.report import export_series_csv

        path = tmp_path / "empty.csv"
        assert export_series_csv({}, path) == 0
        assert path.read_text().startswith("series,x,y")
