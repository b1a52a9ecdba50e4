#!/usr/bin/env python
"""List the functions under ``src/`` that no shipped run enters, and the
parameter defaults that no shipped run overrides.

One process runs, under a function-level trace (``sys.settrace``; the
global trace function sees only the call event of each new frame):

- the 24 registered exhibits at quick size, serially, each rendered and
  its series exported;
- every ``repro`` CLI subcommand, with the arguments CI passes (and the
  pinned digest runs);
- the three pinned ``repro.faults.chaos`` sweeps and the triage gate;
- the six examples, with CI's and the smoke tests' arguments;
- the four perfbench workloads at small size, with their summaries.

It then prints two lists, each with a total:

1. each function, method, property or nested function defined under
   ``src/repro`` whose code never started, with its size in lines.
   Lambdas and class bodies are not listed;
2. each defaulted parameter of a function or dataclass under
   ``src/repro`` that did run, but never with that parameter set to
   another value. The same trace sees every call's arguments; passing
   the default's own value counts as leaving it unset. Only functions
   reachable from a module's namespace are covered (module functions,
   methods, static and class methods, and the ``__init__`` a dataclass
   generates), not nested functions or lambdas.

A name in either list is reached or set only by tests (or by nothing):
delete it with its tests rewritten onto the live path or onto a
constant, or say why it stays. Every module is imported under the trace
before the runs start, and a call made while a module is being imported
does not count as setting a parameter. So a value set only where a
module-level constant is built (say, a config object in a table of
postures) looks unset to the trace: grep for the parameter before
deleting it.

Takes about 110 s on a 2-core container and writes only to a temporary
directory. Not part of CI; rerun it for each pass over what no run
reaches or sets::

    PYTHONPATH=src python benchmarks/unreached.py
"""

from __future__ import annotations

import ast
import contextlib
import dis
import importlib
import inspect
import io
import os
import pathlib
import pkgutil
import runpy
import sys
import tempfile
import time
import types
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


#: Code flags of functions whose frame resumes, raising a call event per resume.
_RESUMES = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


class Defaulted(typing.NamedTuple):
    """The defaulted parameters of one function, by name."""

    path: str
    line: int
    qualname: str
    defaults: dict[str, typing.Any]
    # For a generator, the instruction its first call event stops at;
    # later call events are resumes, whose locals the body has changed.
    entry: int | None


def _where(obj: typing.Any) -> tuple[str, int]:
    path = pathlib.Path(inspect.getsourcefile(obj)).resolve()
    return str(path.relative_to(ROOT)), inspect.getsourcelines(obj)[1]


def defaulted_parameters() -> dict[types.CodeType, Defaulted]:
    """Every module-reachable function under ``src/repro`` with defaults.

    Imports every module of the package.
    """
    import repro

    found: dict[types.CodeType, Defaulted] = {}

    def add(function: typing.Any, owner: typing.Any) -> None:
        """Record ``function``'s defaults, listed at ``owner``'s definition."""
        function = inspect.unwrap(function)
        if not isinstance(function, types.FunctionType):
            return
        code = function.__code__
        positional = code.co_varnames[: code.co_argcount]
        values = function.__defaults__ or ()
        defaults = dict(zip(positional[len(positional) - len(values):], values))
        defaults.update(function.__kwdefaults__ or {})
        if not defaults or code in found:
            return
        entry = None
        if code.co_flags & _RESUMES:
            entry = next(i.offset for i in dis.get_instructions(code) if i.opname == "RESUME")
        found[code] = Defaulted(*_where(owner), owner.__qualname__, defaults, entry)

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, types.FunctionType):
                add(value, value)
            elif isinstance(value, type):
                for member in vars(value).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if not isinstance(member, types.FunctionType):
                        continue
                    filename = pathlib.Path(member.__code__.co_filename)
                    if not filename.is_file():  # generated, e.g. a dataclass __init__
                        add(member, value)
                    elif filename.resolve().is_relative_to(SRC):
                        add(member, member)
    return found


def _short_repr(value: typing.Any) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _unchanged(value: typing.Any, default: typing.Any) -> bool:
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except Exception:  # an __eq__ that cannot answer counts as a change
        return False


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
    parameters: dict[types.CodeType, Defaulted] = {}
    # Code -> names of its defaulted parameters no call has set yet.
    unset: dict[types.CodeType, set[str]] = {}
    entered: set[tuple[str, int, str]] = set()
    codes: set = set()

    def trace(frame, event, arg):
        code = frame.f_code
        codes.add(code)
        names = unset.get(code)
        if names:
            entry = parameters[code]
            if entry.entry is None or frame.f_lasti == entry.entry:
                values = frame.f_locals
                for name in [n for n in names if not _unchanged(values[n], entry.defaults[n])]:
                    names.discard(name)

    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(trace)
        try:
            parameters.update(defaulted_parameters())
            unset.update((code, set(entry.defaults)) for code, entry in parameters.items())
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
        f"{sum(function.size for function in unreached)} lines\n"
    )
    ran = [code for code in parameters if code in codes]
    never_set = sorted(
        ((parameters[code], name) for code in ran for name in unset[code]),
        key=lambda pair: (pair[0].path, pair[0].line, pair[0].qualname, pair[1]),
    )
    for entry, name in never_set:
        default = _short_repr(entry.defaults[name])
        print(f"{entry.path}:{entry.line}  {entry.qualname}({name}={default})")
    print(
        f"\n{len(never_set)} of {sum(len(parameters[code].defaults) for code in ran)} "
        "defaulted parameters of entered functions under src/repro never set"
    )
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
