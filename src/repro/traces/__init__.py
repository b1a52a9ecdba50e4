"""Trace records: the schema the characterization pipeline consumes.

Generators emit the same records a production management-server log
parser would, so the analysis in :mod:`repro.analysis` is agnostic to
whether its input is synthetic or real.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.traces.io": ("read_csv", "read_jsonl", "write_csv", "write_jsonl"),
        "repro.traces.records": ("TraceRecord",),
    },
)

__all__ = [
    "TraceRecord",
    "read_csv",
    "read_jsonl",
    "write_csv",
    "write_jsonl",
]
