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
import subprocess
import sys
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
