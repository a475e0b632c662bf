"""Pytest fixtures, re-exporting the shared programs from ``fixtures``.

The programs and scenario helpers live in ``tests/fixtures.py`` so the
benchmarks can import them without pytest; tests keep their historical
``from conftest import ...`` spelling via the re-exports below.
"""

from __future__ import annotations

import hypothesis
import pytest

from fixtures import (  # noqa: F401  (re-exported for the test modules)
    CounterProgram,
    DriverProgram,
    EchoProgram,
    expected_totals,
    register_test_programs,
    run_counter_scenario,
    wire_driver,
)
from repro import System, SystemConfig

# Tier-1 is a pure function of the code: every @given property runs the
# same examples on every run of one commit — no fresh seed, no example
# database carried over from earlier runs on this machine.
hypothesis.settings.register_profile(
    "tier1", derandomize=True, database=None)
hypothesis.settings.load_profile("tier1")


@pytest.fixture
def two_node_system():
    """A booted two-node publishing system with test programs."""
    system = System(SystemConfig(nodes=2))
    register_test_programs(system)
    system.boot()
    return system


@pytest.fixture
def no_publishing_system():
    """A booted single-node system without publishing."""
    system = System(SystemConfig(nodes=1, publishing=False))
    register_test_programs(system)
    system.boot()
    return system
