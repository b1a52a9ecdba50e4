#!/usr/bin/env python
"""List the functions under ``src/`` that no shipped run enters.

One process runs, under a function-level trace (``sys.settrace``; the
global trace function sees only the call event of each new frame):

- the 24 registered exhibits at quick size, serially, each rendered and
  its series exported;
- every ``repro`` CLI subcommand, with the arguments CI passes (and the
  pinned digest runs);
- the three pinned ``repro.faults.chaos`` sweeps and the triage gate;
- the six examples, with CI's and the smoke tests' arguments;
- the four perfbench workloads at small size, with their summaries.

It then prints each function, method, property or nested function
defined under ``src/repro`` whose code never started, with its size in
lines, and a total. A name listed here is reached only by tests (or by
nothing): delete it with its tests rewritten onto the live path, or say
why it stays. Lambdas and class bodies are not listed.

Takes about 80 s on a 2-core container and writes only to a temporary
directory. Not part of CI; rerun it for each pass over what no run
reaches::

    PYTHONPATH=src python benchmarks/unreached.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile
import time
import typing

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: ``repro`` CLI runs: CI's smoke and export steps, then the digest pins
#: of ``tests/core/test_cli_digests.py``. ``{tmp}`` is a scratch directory.
CLI_RUNS = (
    "list",
    "profile cloud_a --hours 0.5 --trace-out {tmp}/trace.jsonl",
    "profile classic_dc --hours 0.5 --trace-out {tmp}/trace.csv",
    "experiment R-T1 --quick",
    "storm --clones 16",
    "hyperscale --quick",
    "bus --deploys 12 --concurrency 4 --seed 0",
    "bus --deploys 12 --concurrency 4 --seed 0 --fault drop --rate 0.5 --fault-at 2 "
    "--fault-duration 60",
    "faults --duration 120 --rate 0.5 --seed 0",
    "faults --duration 120 --rate 0.5 --seed 0 --no-resilience",
    "federation --deploys 24 --concurrency 8 --seed 0 --crash-at 10",
    "federation --deploys 24 --concurrency 8 --seed 0 --crash-at 10 --affinity-only",
    "triage --kind datastore_outage --seed 3",
    "recover --clones 12 --concurrency 4 --crash-at 10 --downtime 30 --seed 0",
    "metrics --duration 300 --rate 1.2 --seed 0 --prom-out {tmp}/metrics.prom "
    "--rollups-out {tmp}/rollups.jsonl --alerts-out {tmp}/alerts.jsonl",
    "trace --clones 16 --concurrency 8 --seed 0 --chrome-out {tmp}/trace.json "
    "--jsonl-out {tmp}/spans.jsonl",
    "trace --clones 16 --concurrency 8 --seed 0 --sample 256 "
    "--chrome-out {tmp}/trace-sampled.json",
    "incident --kind host_flap --seed 0 --bundle-out {tmp}/incidents.jsonl",
    "sweep config.cpu_workers 4,8 --clones 16",
    "bus --deploys 12 --concurrency 4 --fault duplicate --fault-at 2 --fault-duration 40",
    "bus --deploys 12 --concurrency 4 --fault delay --fault-at 2 --fault-duration 40",
    "bus --deploys 12 --concurrency 4 --fault reorder --fault-at 2 --fault-duration 40",
    "bus --deploys 12 --concurrency 4 --fault partition --fault-at 2 --fault-duration 40",
    "recover --clones 8 --concurrency 3 --crash-at 3",
    "trace --clones 8 --concurrency 4 --sample 256",
)

#: The CI chaos job's pinned sweeps.
CHAOS_RUNS = (
    "--seeds 8 --points 5 --sweep-seed 50341",
    "--mode message --seeds 8 --points 5 --sweep-seed 45061",
    "--mode federation --seeds 4 --points 7 --sweep-seed 65262",
)

#: The CI triage gate.
TRIAGE_RUN = "--seeds 6 --quick --min-top1 0.8 --min-recall 0.7"

#: Example scripts with CI's and ``tests/examples``' arguments.
EXAMPLE_RUNS = (
    ("quickstart.py", ""),
    ("quickstart.py", "--duration 0.25 --profile classic_dc"),
    ("clone_storm.py", "--clones 8 --hosts 4"),
    ("selfservice_day.py", "--hours 1 --tenants 2 --seed 4"),
    ("scaleout_design.py", "--clones 16"),
    ("failure_recovery.py", "--vms 4"),
    ("whatif_replay.py", "--hours 0.2 --seed 2"),
)


class Function(typing.NamedTuple):
    path: pathlib.Path
    line: int
    name: str
    qualname: str
    size: int


def defined_functions() -> list[Function]:
    """Every ``def`` under ``src/repro``, keyed as its code object is.

    A decorated function's code starts at its first decorator, which is
    what ``co_firstlineno`` reports.
    """
    found = []

    def visit(node: ast.AST, path: pathlib.Path, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = ".".join(scope + [child.name])
                found.append(
                    Function(path, line, child.name, qualname, child.end_lineno - line + 1)
                )
                visit(child, path, scope + [child.name, "<locals>"])
            elif isinstance(child, ast.ClassDef):
                visit(child, path, scope + [child.name])
            else:
                visit(child, path, scope)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path, [])
    return found


def run_all(tmp: str) -> list[str]:
    """Drive every run; return a description of each that did not exit 0."""
    from repro.analysis.report import export_series_csv
    from repro.cli import main as cli_main
    from repro.core.experiments import EXPERIMENTS, run_experiment
    from repro.faults.chaos import main as chaos_main
    from repro.triage.harness import main as triage_main

    failures = []

    def step(label: str, call: typing.Callable[[], typing.Any]) -> None:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = call()
        except SystemExit as exit_:
            status = exit_.code
        if status not in (None, 0):
            failures.append(f"{label}: exit {status}")
        print(f"  {time.perf_counter() - start:7.1f} s  {label}", file=sys.stderr)

    for exp_id in EXPERIMENTS:

        def exhibit(exp_id=exp_id):
            result = run_experiment(exp_id, seed=0, quick=True, parallel=1)
            print(result.render())
            if result.series:
                export_series_csv(result.series, pathlib.Path(tmp) / f"{exp_id}.csv")

        step(f"experiment {exp_id} --quick", exhibit)
    step("--help", lambda: cli_main(["--help"]))
    for command in CLI_RUNS:
        argv = command.format(tmp=tmp).split()
        step(f"repro {command.format(tmp='TMP')}", lambda argv=argv: cli_main(argv))
    for command in CHAOS_RUNS:
        step(f"repro.faults.chaos {command}", lambda argv=command.split(): chaos_main(argv))
    step(f"repro.triage.harness {TRIAGE_RUN}", lambda: triage_main(TRIAGE_RUN.split()))
    for script, args in EXAMPLE_RUNS:
        path = ROOT / "examples" / script

        def example(path=path, argv=[str(path), *args.split()]):
            saved = sys.argv
            sys.argv = argv
            try:
                runpy.run_path(str(path), run_name="__main__")
            finally:
                sys.argv = saved

        step(f"examples/{script} {args}".rstrip(), example)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    for name, (cls, _, small) in WORKLOADS.items():

        def workload(cls=cls, small=small):
            run = cls(1, small)
            run.run()
            if run.summary()["violations"]:
                return 1

        step(f"perfbench {name} (small)", workload)
    return failures


def main() -> int:
    functions = defined_functions()
    entered: set[tuple[str, int, str]] = set()
    codes: set = set()

    def trace(frame, event, arg):
        codes.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(trace)
        try:
            failures = run_all(tmp)
        finally:
            sys.settrace(None)
    for code in codes:
        entered.add((os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name))

    unreached = [
        function
        for function in functions
        if (os.path.realpath(function.path), function.line, function.name) not in entered
    ]
    for function in unreached:
        relative = function.path.relative_to(ROOT)
        print(f"{relative}:{function.line}  {function.qualname}  ({function.size} lines)")
    print(
        f"\n{len(unreached)} of {len(functions)} functions under src/repro unreached, "
        f"{sum(function.size for function in unreached)} lines"
    )
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
