"""Every script in ``examples/`` runs to exit 0.

Each example asserts its own outcome, so a script that exits 0 did what
its docstring promises; a public name an example still uses and the
package no longer has fails here too. Each runs in a fresh interpreter
with ``PYTHONPATH=src``, as its docstring says to run it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
