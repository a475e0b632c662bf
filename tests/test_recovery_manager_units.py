"""Focused unit tests for the recovery manager's decision logic."""

import pytest

from repro import System, SystemConfig
from repro.demos.ids import ProcessId, kernel_pid
from repro.demos.messages import AliveReply, ProcessCrashed

from conftest import register_test_programs, run_counter_scenario


@pytest.fixture
def system():
    sys_ = System(SystemConfig(nodes=2))
    register_test_programs(sys_)
    sys_.boot()
    return sys_


class TestStartRecovery:
    def test_destroyed_record_refused(self, system):
        pid = system.spawn_program("test/counter", node=1)
        system.run(500)
        record = system.recorder.db.get(pid)
        record.destroyed = True
        assert system.recovery.start_recovery(record) is False

    def test_unrecoverable_record_refused(self, system):
        pid = system.spawn_program("test/counter", node=1, recoverable=False)
        system.run(500)
        record = system.recorder.db.get(pid)
        assert system.recovery.start_recovery(record) is False

    def test_placeholder_record_refused(self, system):
        system.run(300)
        record = system.recorder.db.create(ProcessId(1, 55), node=1, image="")
        assert system.recovery.start_recovery(record) is False

    def test_epoch_bumps_per_start(self, system):
        pid = system.spawn_program("test/counter", node=1)
        system.run(500)
        record = system.recorder.db.get(pid)
        before = record.recovery_epoch
        assert system.recovery.start_recovery(record)
        assert system.recovery.start_recovery(record)
        assert record.recovery_epoch == before + 2
        system.run(30_000)      # let the surviving recovery finish
        assert system.process_state(pid) == "running"


class TestRecoverNode:
    def test_returns_started_count(self, system):
        a = system.spawn_program("test/counter", node=2)
        b = system.spawn_program("test/counter", node=2)
        system.run(500)
        system.nodes[2].crash()
        started = system.recovery.recover_node(2)
        # KP + two counters.
        assert started == 3
        system.run(60_000)
        assert system.process_state(a) == "running"
        assert system.process_state(b) == "running"

    def test_skips_unrecoverable_processes(self, system):
        a = system.spawn_program("test/counter", node=2)
        b = system.spawn_program("test/counter", node=2, recoverable=False)
        system.run(500)
        system.nodes[2].crash()
        started = system.recovery.recover_node(2)
        assert started == 2            # KP + a; b is skipped
        system.run(60_000)
        assert system.process_state(a) == "running"
        assert system.process_state(b) in (None, "dead")


class TestControlRouting:
    def test_crash_report_for_unknown_pid_ignored(self, system):
        system.run(300)
        before = system.recovery.stats.recoveries_started
        system.recovery._on_process_crashed(
            ProcessCrashed(ProcessId(9, 9), 9, "fault"), 9)
        assert system.recovery.stats.recoveries_started == before
        assert system.recovery.stats.process_crash_reports == 1

    def test_alive_reply_routed_to_right_watchdog(self, system):
        system.run(300)
        dog1 = system.recovery.watchdogs[1]
        seen_before = dog1.replies_seen.value
        system.recovery._on_alive_reply(
            AliveReply(1), 1)
        assert dog1.replies_seen.value == seen_before + 1

    def test_completion_signal_is_cached(self, system):
        pid = ProcessId(1, 3)
        first = system.recovery.completion_signal(pid)
        assert system.recovery.completion_signal(pid) is first
