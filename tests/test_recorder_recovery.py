"""Recorder crash and restart (§3.3.4, §3.4) and recorder observability."""

import pytest

from repro import System, SystemConfig
from repro.demos.messages import Control

from conftest import (
    expected_totals,
    register_test_programs,
    run_counter_scenario,
)


def drive_to_completion(system, driver_pid, n, max_ms=300_000):
    deadline = system.engine.now + max_ms
    while system.engine.now < deadline:
        driver = system.program_of(driver_pid)
        if driver is not None and len(driver.replies) >= n:
            return driver
        system.run(1000)
    return system.program_of(driver_pid)


class TestRecorderCrash:
    def test_traffic_suspends_while_recorder_down(self, two_node_system):
        """"All message traffic to processes must be suspended whenever
        the recorder goes down" (§3.3.4)."""
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=60)
        system.run(1000)
        progress_before = len(system.program_of(counter_pid).seen)
        system.crash_recorder()
        system.run(5000)
        progress_during = len(system.program_of(counter_pid).seen)
        assert progress_during <= progress_before + 1   # stalled

    def test_no_messages_lost_across_recorder_outage(self, two_node_system):
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=60)
        system.run(1000)
        system.crash_recorder()
        system.run(4000)
        system.restart_recorder()
        driver = drive_to_completion(system, driver_pid, 60)
        assert driver.replies == expected_totals(60)
        counter = system.program_of(counter_pid)
        assert counter.seen == list(range(1, 61))

    def test_restart_number_increments(self, two_node_system):
        system = two_node_system
        system.run(100)
        assert system.recorder.stable.restart_number == 0
        system.crash_recorder()
        number = system.restart_recorder()
        assert number == 1
        system.crash_recorder()
        assert system.restart_recorder() == 2

    def test_database_survives_crash(self, two_node_system):
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=20)
        system.run(2000)
        records_before = set(system.recorder.db.records)
        system.crash_recorder()
        system.restart_recorder()
        assert set(system.recorder.db.records) == records_before

    def test_state_queries_sent_on_restart(self, two_node_system):
        system = two_node_system
        system.run(1000)
        system.crash_recorder()
        system.run(1000)
        system.restart_recorder()
        system.run(2000)
        # Both nodes answered; nothing needed recovery.
        assert system.recovery.stats.recoveries_started == 0

    def test_process_crashed_while_recorder_down_is_recovered(
            self, two_node_system):
        """§3.3.4 property 3: "any processes that crashed while the
        recorder was down will be recovered"."""
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=60)
        system.run(1000)
        system.crash_recorder()
        system.run(500)
        # The crash report goes nowhere (recorder down, retried later).
        system.nodes[2].kernel.crash_process(counter_pid)
        system.run(3000)
        system.restart_recorder()
        driver = drive_to_completion(system, driver_pid, 60)
        assert driver.replies == expected_totals(60)

    def test_recovery_interrupted_by_recorder_crash_is_restarted(
            self, two_node_system):
        """§3.3.4 property 2: "any processes being recovered when the
        crash occurs must be recovered subsequent to the restart"."""
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=60)
        system.run(1200)
        system.crash_process(counter_pid)
        # Let the recreate land so the process is mid-recovery...
        for _ in range(4000):
            state = system.process_state(counter_pid)
            if state == "recovering":
                break
            system.run(5)
        assert system.process_state(counter_pid) == "recovering"
        # ...then kill the recorder mid-replay.
        system.crash_recorder()
        system.run(2000)
        system.restart_recorder()
        driver = drive_to_completion(system, driver_pid, 60)
        assert driver.replies == expected_totals(60)
        counter = system.program_of(counter_pid)
        assert counter.seen == list(range(1, 61))

    def test_stale_state_replies_ignored(self, two_node_system):
        """§3.4: responses carrying an old restart number are discarded."""
        system = two_node_system
        system.run(500)
        system.crash_recorder()
        system.restart_recorder()
        # Forge a reply stamped with the previous restart number.
        stale = Control("state_reply", {
            "node": 1, "restart_number": 0, "states": {},
        })
        system.recovery._on_state_reply(stale, 1)
        assert system.recovery.stats.stale_state_replies == 1


class TestRecorderObservability:
    def test_messages_recorded_and_deduplicated(self, two_node_system):
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=10)
        system.run(10_000)
        record = system.recorder.db.get(counter_pid)
        assert len(record.arrivals) == 10
        seqs = [lm.message.msg_id.seq for lm in record.arrivals]
        assert seqs == sorted(seqs)

    def test_publish_cpu_charged_per_message(self, two_node_system):
        system = two_node_system
        before = system.recorder.cpu_busy_ms.value
        run_counter_scenario(system, n=5)
        system.run(5000)
        recorded = system.recorder.messages_recorded.value
        assert system.recorder.cpu_busy_ms.value - before == pytest.approx(
            recorded and (system.recorder.cpu_busy_ms.value - before), rel=1.0)
        assert system.recorder.cpu_busy_ms.value > before

    def test_disk_receives_message_bytes(self, two_node_system):
        system = two_node_system
        run_counter_scenario(system, n=40)
        system.run(20_000)
        assert system.recorder.disks.bytes_written > 0

    def test_checkpoint_stored_on_disk_before_invalidation(self, two_node_system):
        system = two_node_system
        counter_pid, _ = run_counter_scenario(system, n=10)
        system.run(8000)
        writes_before = system.recorder.disks.writes
        system.checkpoint(counter_pid)
        system.run(2000)
        assert system.recorder.disks.writes > writes_before
        record = system.recorder.db.get(counter_pid)
        assert record.checkpoint is not None

    def test_destroyed_process_history_discarded(self, two_node_system):
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=5)
        system.run(5000)
        kernel = system.nodes[2].kernel
        kernel.destroy_process(counter_pid)
        system.run(1000)
        record = system.recorder.db.get(counter_pid)
        assert record.destroyed
        assert record.valid_message_bytes() == 0
