"""Every Python file of the repository compiles with compiler warnings
raised as errors.

This is the part of a linter that the interpreter already knows:
syntax errors (ruff's E9), statements in the wrong place such as a
``return`` outside a function or a ``break`` outside a loop (F7), and
``is`` against a literal (the ``is``-literal half of F63), which the
compiler reports as a ``SyntaxWarning``. An invalid escape sequence in
a string is a ``SyntaxWarning`` from Python 3.12 and a
``DeprecationWarning`` before, so both are errors here. Nothing is
written: the source is compiled in memory and thrown away.
"""

import os
import warnings

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TREES = ("src", "tests", "bench", "benchmarks", "examples")


def python_files():
    for tree in TREES:
        for folder, dirs, files in os.walk(os.path.join(ROOT, tree)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(folder, name), ROOT)


def test_the_trees_hold_python_files():
    found = {path.split(os.sep)[0] for path in python_files()}
    assert found == set(TREES)


def compile_error(path):
    """What compiling ``path`` with warnings as errors raised, or None."""
    with open(os.path.join(ROOT, path), "rb") as handle:
        source = handle.read()
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        warnings.simplefilter("error", DeprecationWarning)
        try:
            compile(source, path, "exec", dont_inherit=True)
        except (SyntaxError, SyntaxWarning, DeprecationWarning) as exc:
            return f"{path}: {exc}"
    return None


def test_every_file_compiles_without_warnings():
    errors = [error for error in map(compile_error, python_files()) if error]
    assert errors == []


def test_a_warning_is_an_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        with pytest.raises(SyntaxError):
            compile("x = 1\ny = x is 1\n", "<literal>", "exec",
                    dont_inherit=True)
        with pytest.raises(SyntaxError):
            compile("def f():\n    pass\nreturn 1\n", "<return>", "exec",
                    dont_inherit=True)
