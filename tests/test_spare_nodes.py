"""§3.3.3/§4.6 — recovering onto a spare processor that assumes the
failed processor's identity."""

import pytest

from repro import System, SystemConfig
from repro.demos.ids import kernel_pid

from conftest import expected_totals, register_test_programs, run_counter_scenario


def drive(system, driver_pid, n, max_ms=240_000):
    deadline = system.engine.now + max_ms
    while system.engine.now < deadline:
        driver = system.program_of(driver_pid)
        if driver is not None and len(driver.replies) >= n:
            return driver
        system.run(1000)
    return system.program_of(driver_pid)


class TestSpareTakeover:
    def build(self, policy="spare"):
        system = System(SystemConfig(nodes=2, reboot_policy=policy))
        register_test_programs(system)
        system.boot()
        return system

    def test_spare_assumes_identity_and_workload_completes(self):
        system = self.build()
        counter_pid, driver_pid = run_counter_scenario(system, n=40)
        system.run(1200)
        old_node = system.nodes[2]
        system.crash_node(2)
        driver = drive(system, driver_pid, 40)
        assert driver.replies == expected_totals(40)
        # A different kernel now answers to node id 2.
        assert system.nodes[2] is not old_node
        assert system.nodes[2].up
        counter = system.program_of(counter_pid)
        assert counter.seen == list(range(1, 41))

    def test_spare_notices_reach_the_recorder(self):
        """The spare continues the failed kernel's control numbering, so
        the recorder's notice dedup, keyed by segment uid, does not take
        its first notices for the old node's retransmissions."""
        system = self.build()
        run_counter_scenario(system, n=5)
        system.run(2000)
        old_seq = system.nodes[2]._control_seq
        system.crash_node(2)
        while kernel_pid(2) not in system.nodes[2].processes:
            system.run(10)
        assert system.nodes[2]._control_seq > old_seq
        echo = system.spawn_program("test/echo", node=2)
        system.run(1000)
        assert system.recorder.db.get(echo).image == "test/echo"

    def test_old_interface_is_dead(self):
        system = self.build()
        counter_pid, driver_pid = run_counter_scenario(system, n=30)
        system.run(1200)
        old_iface = system.nodes[2].transport.iface
        system.crash_node(2)
        drive(system, driver_pid, 30)
        assert old_iface.medium is None
        assert not old_iface.up
        # Exactly one interface answers to node 2 on the medium.
        claimants = [i for i in system.medium.interfaces if i.node_id == 2]
        assert len(claimants) == 1

    def test_kernel_process_recovered_on_spare(self):
        system = self.build()
        counter_pid, driver_pid = run_counter_scenario(system, n=30)
        system.run(1200)
        system.crash_node(2)
        drive(system, driver_pid, 30)
        deadline = system.engine.now + 60_000
        while system.engine.now < deadline:
            if system.process_state(kernel_pid(2)) == "running":
                break
            system.run(500)
        assert system.process_state(kernel_pid(2)) == "running"

    def test_manual_takeover_while_policy_none(self):
        """§4.6's operator prompt: with policy 'none' nothing happens
        until the operator chooses a response."""
        system = self.build(policy="none")
        counter_pid, driver_pid = run_counter_scenario(system, n=30)
        system.run(1200)
        system.crash_node(2)
        system.run(10_000)
        assert not system.nodes[2].up          # nobody rebooted it
        # Operator picks "recover on a spare processor":
        system.spare_takeover(2)
        system.run(1000)
        if system.recovery.stats.recoveries_started == 0:
            # The watchdog latch fired during the outage; trigger the
            # recovery sweep for the node now that hardware exists.
            system.recovery.recover_node(2)
        driver = drive(system, driver_pid, 30)
        assert driver.replies == expected_totals(30)

    def test_takeover_of_healthy_node_is_noop(self):
        system = self.build()
        system.run(100)
        node = system.nodes[1]
        assert system.spare_takeover(1) is node
