"""Helpers shared by the end-to-end recovery benchmarks."""

from __future__ import annotations

import os
import sys

from repro import System, SystemConfig

# The shared programs live in tests/fixtures.py (pytest-free precisely
# so this import works outside the test suite).
_tests_dir = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                          "tests"))
if _tests_dir not in sys.path:
    sys.path.insert(0, _tests_dir)

from fixtures import (  # noqa: E402,F401  (re-exported for the benches)
    FlatProcessLog,
    count_calls,
    crc16_bitwise,
    register_test_programs,
    run_counter_scenario,
)


def build_counter_system(n: int = 100):
    system = System(SystemConfig(nodes=2))
    register_test_programs(system)
    system.boot()
    counter_pid, driver_pid = run_counter_scenario(system, n=n)
    return system, counter_pid, driver_pid


def _run_until_seen(system, counter_pid, count, max_ms=600_000):
    deadline = system.engine.now + max_ms
    while system.engine.now < deadline:
        program = system.program_of(counter_pid)
        if program is not None and len(program.seen) >= count:
            return
        system.run(200)


def measure_recovery_time(messages_before_checkpoint: int,
                          messages_after_checkpoint: int,
                          skip_checkpoint: bool = False):
    """Crash the counter a controlled distance past its checkpoint and
    return (simulated recovery duration ms, messages replayed)."""
    total = messages_before_checkpoint + messages_after_checkpoint + 20
    system, counter_pid, driver_pid = build_counter_system(n=total)
    _run_until_seen(system, counter_pid, messages_before_checkpoint)
    if not skip_checkpoint and messages_before_checkpoint > 0:
        assert system.checkpoint(counter_pid)
        system.run(200)
    _run_until_seen(system, counter_pid,
                    messages_before_checkpoint + messages_after_checkpoint)
    start = system.engine.now
    system.crash_process(counter_pid)
    deadline = start + 600_000
    while (system.engine.now < deadline
           and system.recovery.stats.recoveries_completed < 1):
        system.run(100)
    duration = system.engine.now - start
    return duration, system.recovery.stats.messages_replayed
