"""The package surface: every exported name exists, and tdp needs nothing
outside the standard library."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import tdp


def test_every_name_in_every_all_resolves():
    """A deletion that leaves its name in an ``__all__`` list fails here."""
    modules = [tdp] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(tdp.__path__, prefix="tdp.")
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 8
    stale = [f"{m.__name__}.{name}" for m in exporting for name in m.__all__
             if not hasattr(m, name)]
    assert not stale


def test_tdp_imports_only_the_standard_library():
    """Every import in the package, function-local ones too, names tdp itself
    or a standard-library module, so tdp has no third-party dependency."""
    foreign = set()
    for path in Path(tdp.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign |= {(path.name, name) for name in names
                        if name.partition(".")[0] not in {*sys.stdlib_module_names, "tdp"}}
    assert not foreign


def test_importing_the_cli_leaves_the_http_transport_unloaded():
    """Only a remote backend's call loads ``urllib.request``; scripted runs,
    which every benchmark workload is, never pay for it."""
    transport = ("urllib.request", "http.client", "ssl")
    probe = f"import sys, tdp.cli; print([m for m in {transport!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=Path(tdp.__file__).parents[1]).stdout
    assert out.strip() == "[]"
