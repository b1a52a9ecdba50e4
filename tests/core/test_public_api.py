"""Public API completeness of every ``repro`` package.

Package ``__init__``\\ s resolve their exports lazily, on first access, so
a stale or misspelt table entry would only fail when some caller first
used the name. These checks resolve every exported name up front, and
import every module in a fresh interpreter: the packages no longer import
their submodules, so nothing else would catch a broken top-level import.
"""

import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import tokenize
import types

import pytest

import repro

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)


def test_every_package_is_covered():
    assert len(PACKAGES) == 15


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    missing = [export for export in package.__all__ if not hasattr(package, export)]
    assert missing == []


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_export(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    package = importlib.import_module(name)
    assert [export for export in package.__all__ if export not in namespace] == []


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_exports_and_nothing_stale(name):
    package = importlib.import_module(name)
    listed = set(dir(package))
    assert sorted(set(package.__all__) - listed) == []
    # Anything else public that dir() offers must be a submodule, not a
    # table entry missing from __all__.
    extra = {entry for entry in listed - set(package.__all__) if not entry.startswith("_")}
    assert sorted(
        entry for entry in extra if not isinstance(getattr(package, entry), types.ModuleType)
    ) == []


def test_every_module_imports_in_a_fresh_interpreter():
    code = "\n".join(
        [
            "import importlib, pkgutil, repro",
            "names = [info.name for info in pkgutil.walk_packages(repro.__path__, 'repro.')]",
            "for name in names:",
            "    if name != 'repro.__main__':",
            "        importlib.import_module(name)",
            "print(len(names))",
        ]
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert int(completed.stdout) > 90


# Exported names that no product file mentions on purpose, with the reason.
KEEP = (
    ("read_csv", "reads the CSV trace `repro profile --trace-out x.csv` writes"),
    ("read_jsonl", "reads the JSONL trace `repro profile --trace-out x.jsonl` writes"),
    ("read_spans_jsonl", "reads the span files `repro trace --jsonl-out` writes"),
    ("read_incident_bundle", "reads the bundle `repro incident --bundle-out` writes"),
    ("read_incident_bundles", "reads the JSONL bundles `repro incident --bundle-out` writes"),
    ("random_fault_schedule", "drives the hypothesis quiesce property in tests/faults"),
    ("__version__", "package version attribute, mirrors pyproject.toml"),
)

PRODUCT_DIRS = ("src", "benchmarks", "examples", "perfbench")


def _product_sources() -> dict[pathlib.Path, str]:
    """Every product ``.py`` file except the package export tables, comments stripped."""
    sources = {}
    for directory in PRODUCT_DIRS:
        for path in sorted((SRC.parent / directory).rglob("*.py")):
            if path.name == "__init__.py" and SRC in path.parents:
                continue
            with path.open("rb") as handle:
                tokens = [
                    token
                    for token in tokenize.tokenize(handle.readline)
                    if token.type != tokenize.COMMENT
                ]
            sources[path] = tokenize.untokenize(tokens).decode()
    return sources


def test_every_export_is_used_by_some_product_file():
    """A name in ``__all__`` that only tests reach is dead weight: delete it or use it."""
    sources = _product_sources()
    unused = []
    for name in PACKAGES:
        for export in importlib.import_module(name).__all__:
            definition = re.compile(
                rf"^\s*(?:(?:async\s+)?def|class)\s+{re.escape(export)}\b"
                rf"|^{re.escape(export)}\s*(?::[^=]*)?=",
            )
            mention = re.compile(rf"\b{re.escape(export)}\b")
            if not any(
                mention.search(line) and not definition.match(line)
                for text in sources.values()
                for line in text.splitlines()
            ):
                unused.append(f"{name}.{export}")
    kept = {export for export, _ in KEEP}
    assert sorted(entry for entry in unused if entry.rsplit(".", 1)[1] not in kept) == []
    # A KEEP entry that a product file now uses, or that no package exports, is stale.
    assert sorted(kept - {entry.rsplit(".", 1)[1] for entry in unused}) == []
