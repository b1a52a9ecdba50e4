"""Tests for trace records and IO round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import (
    TraceRecord,
    read_csv,
    read_jsonl,
    write_csv,
    write_jsonl,
)


def make_record(op="deploy", submitted=0.0, started=1.0, finished=5.0, success=True, **kw):
    return TraceRecord(
        op_type=op,
        submitted_at=submitted,
        started_at=started,
        finished_at=finished,
        success=success,
        control_s=kw.pop("control_s", 2.0),
        data_s=kw.pop("data_s", 1.0),
        **kw,
    )


def test_derived_metrics():
    record = make_record()
    assert record.latency == 5.0
    assert record.queue_wait == 1.0


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown trace fields"):
        TraceRecord.from_dict({"op_type": "x", "bogus": 1})


def test_csv_roundtrip(tmp_path):
    records = [make_record(op=f"op{i}", submitted=float(i)) for i in range(5)]
    path = tmp_path / "trace.csv"
    assert write_csv(records, path) == 5
    assert read_csv(path) == records


def test_jsonl_roundtrip(tmp_path):
    records = [make_record(op=f"op{i}", success=bool(i % 2)) for i in range(5)]
    path = tmp_path / "trace.jsonl"
    assert write_jsonl(records, path) == 5
    assert read_jsonl(path) == records


def test_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl([make_record()], path)
    with open(path, "a") as handle:
        handle.write("\n\n")
    assert len(read_jsonl(path)) == 1


@given(
    submitted=st.floats(min_value=0, max_value=1e6),
    service=st.floats(min_value=0, max_value=1e4),
    wait=st.floats(min_value=0, max_value=1e4),
    success=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_csv_roundtrip_property(submitted, service, wait, success):
    import tempfile
    import pathlib

    record = make_record(
        submitted=submitted,
        started=submitted + wait,
        finished=submitted + wait + service,
        success=success,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "prop.csv"
        write_csv([record], path)
        assert read_csv(path) == [record]
