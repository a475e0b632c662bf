"""Full-stack integration over every medium model.

The same DEMOS/MP workload — including a crash and recovery — must work
unchanged over the perfect bus, the CSMA/CD Ethernet (explicit e2e ack
frames that contend), the Acknowledging Ethernet (reserved-slot acks),
the token ring (ack field), and the star hub (§4.1's actual Z8000
configuration). That is the §6.1 claim: publishing is a property of the
model, with per-medium mechanisms for the recorder acknowledgement.
"""

import pytest

from repro import System, SystemConfig
from repro.net import MEDIA

from conftest import expected_totals, register_test_programs, run_counter_scenario

ALL_MEDIA = list(MEDIA)


def build(medium, **kwargs):
    system = System(SystemConfig(nodes=2, medium=medium, **kwargs))
    register_test_programs(system)
    system.boot()
    return system


def drive(system, driver_pid, n, max_ms=600_000):
    deadline = system.engine.now + max_ms
    while system.engine.now < deadline:
        driver = system.program_of(driver_pid)
        if driver is not None and len(driver.replies) >= n:
            return driver
        system.run(1000)
    return system.program_of(driver_pid)


@pytest.mark.parametrize("medium", ALL_MEDIA)
def test_workload_completes_on_every_medium(medium):
    system = build(medium)
    counter_pid, driver_pid = run_counter_scenario(system, n=15)
    driver = drive(system, driver_pid, 15)
    assert driver.replies == expected_totals(15)
    # Everything was published.
    record = system.recorder.db.get(counter_pid)
    assert len(record.arrivals) == 15


@pytest.mark.parametrize("medium", ALL_MEDIA)
def test_crash_recovery_on_every_medium(medium):
    system = build(medium)
    counter_pid, driver_pid = run_counter_scenario(system, n=25)
    system.run(800)                       # mid-stream on every medium
    system.crash_process(counter_pid)
    deadline = system.engine.now + 600_000
    while (system.engine.now < deadline
           and system.recovery.stats.recoveries_completed < 1):
        system.run(500)
    driver = drive(system, driver_pid, 25)
    assert driver.replies == expected_totals(25)
    counter = system.program_of(counter_pid)
    assert counter.seen == list(range(1, 26))
    assert system.recovery.stats.recoveries_completed == 1


@pytest.mark.parametrize("medium", ["broadcast", "acking_ethernet", "star"])
def test_node_crash_recovery_on_selected_media(medium):
    system = build(medium)
    counter_pid, driver_pid = run_counter_scenario(system, n=25)
    system.run(2000)
    system.crash_node(2)
    driver = drive(system, driver_pid, 25)
    assert driver.replies == expected_totals(25)


class TestLossyNetworks:
    """Publishing atop an unreliable medium: the transport's
    retransmission and the recorder-ack rule must mask random frame
    loss and corruption completely."""

    @pytest.mark.parametrize("loss", [0.02, 0.10])
    def test_random_loss_masked(self, loss):
        system = build("broadcast", loss_rate=loss)
        counter_pid, driver_pid = run_counter_scenario(system, n=20)
        driver = drive(system, driver_pid, 20)
        assert driver.replies == expected_totals(20)
        assert system.nodes[1].kernel.transport.stats.retransmissions.value > 0

    def test_random_corruption_masked(self):
        system = build("broadcast", corruption_rate=0.05)
        counter_pid, driver_pid = run_counter_scenario(system, n=20)
        driver = drive(system, driver_pid, 20)
        assert driver.replies == expected_totals(20)

    def test_loss_plus_crash(self):
        """Loss and a crash together: recovery still exact."""
        system = build("broadcast", loss_rate=0.05)
        counter_pid, driver_pid = run_counter_scenario(system, n=25)
        system.run(3000)
        system.crash_process(counter_pid)
        driver = drive(system, driver_pid, 25)
        assert driver.replies == expected_totals(25)
        counter = system.program_of(counter_pid)
        assert counter.seen == list(range(1, 26))

    def test_recorder_misses_masked_by_retransmission(self):
        """Frames the recorder fails to store are unusable and must be
        re-sent until recorded (§4.4.1)."""
        system = build("broadcast")
        # Recorder misses the next 3 data frames.
        system.faults.corrupt_next(
            lambda f, node: node == system.config.recorder_node_id
            and f.kind.value == "data", count=3)
        counter_pid, driver_pid = run_counter_scenario(system, n=10)
        driver = drive(system, driver_pid, 10)
        assert driver.replies == expected_totals(10)
        assert system.medium.stats.recorder_misses.value >= 1
        # Every delivered message is in the log exactly once.
        record = system.recorder.db.get(counter_pid)
        assert len(record.arrivals) == 10
