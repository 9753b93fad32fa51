"""The package surface: every exported name exists."""

from __future__ import annotations

import importlib
import pkgutil

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
