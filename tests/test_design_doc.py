"""DESIGN.md's module map ("Package") and experiment index ("Modules")
name modules that exist: each imports as ``repro.<name>``. Globs
(``net.*``) and prose ("whole stack") name no one module."""

import importlib
import os
import re

DOC = os.path.join(os.path.dirname(__file__), os.pardir, "DESIGN.md")
COLUMNS = ("Package", "Modules")


def named_modules():
    """Every backquoted module name in a "Package" or "Modules" cell."""
    names = []
    column = None
    for line in open(DOC, encoding="utf-8"):
        if not line.startswith("|"):
            column = None
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if column is None:
            column = next((i for i, cell in enumerate(cells)
                           if cell in COLUMNS), -1)
        elif column >= 0 and not set(cells[0]) <= set("-: "):
            names += [name for name in re.findall(r"`([\w.*]+)`",
                                                  cells[column])
                      if "*" not in name]
    return names


def test_every_module_design_md_names_imports():
    names = named_modules()
    assert "repro.sim" in names and "publishing.recovery_time" in names
    missing = []
    for name in names:
        dotted = name if name.startswith("repro.") else f"repro.{name}"
        try:
            importlib.import_module(dotted)
        except ImportError:
            missing.append(name)
    assert missing == []
