"""The figures README.md shows come from the script that measures them."""

from __future__ import annotations

import importlib.util

import pytest
from conftest import REPO_ROOT


def _readme_tables():
    path = REPO_ROOT / "tools" / "readme_tables.py"
    spec = importlib.util.spec_from_file_location("readme_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_generated_blocks_are_fresh(monkeypatch, tmp_path):
    """Rerunning ``tools/readme_tables.py`` in memory leaves README.md as it
    is; a hand edit of a generated figure, or a change that moves one without
    rerunning the script, fails here."""
    import perfbench.crossover

    # record() makes its scratch directory under ROOT; keep it out of the checkout
    monkeypatch.setattr(perfbench.crossover, "ROOT", tmp_path)
    tables = _readme_tables()
    text = tables.README.read_text(encoding="utf-8")
    assert tables.rewrite(text, tables.blocks()) == text


def test_rewrite_replaces_exactly_one_block_per_name():
    tables = _readme_tables()
    text = "intro\n<!-- t:begin -->\nold\nlines\n<!-- t:end -->\nafter\n"
    new = "intro\n<!-- t:begin -->\nnew\n<!-- t:end -->\nafter\n"
    assert tables.rewrite(text, {"t": "new"}) == new
    for broken in ("no block here\n", text + text):
        with pytest.raises(ValueError, match="expected one 't' block"):
            tables.rewrite(broken, {"t": "new"})
