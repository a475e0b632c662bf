"""End-to-end recovery scenarios — the heart of the reproduction.

Each test crashes something mid-computation and asserts that the final
observable behaviour is *exactly* what a crash-free run produces: no
lost messages, no duplicated messages, no reordered replies. That is
the thesis's definition of transparent recovery (§3.1, §3.2).
"""

import pytest

from repro import GeneratorProgram, Program, Recv, System, SystemConfig
from repro.demos.ids import ProcessId, kernel_pid
from repro.demos.links import Link
from repro.demos.process import ProcessState

from conftest import (
    expected_totals,
    register_test_programs,
    run_counter_scenario,
    wire_driver,
)


N = 60


def finish(system, counter_pid, driver_pid, n=N, max_ms=240_000):
    """Run until the driver got all replies (or time out).

    Re-fetches the program objects every iteration: recovery replaces
    them, and a crashed node has none at all for a while.
    """
    deadline = system.engine.now + max_ms
    while system.engine.now < deadline:
        driver = system.program_of(driver_pid)
        if driver is not None and len(driver.replies) >= n:
            break
        system.run(1000)
    return system.program_of(counter_pid), system.program_of(driver_pid)


def wait_recovered(system, pid, max_ms=120_000):
    """Run until ``pid`` is running again (post-crash)."""
    deadline = system.engine.now + max_ms
    while system.engine.now < deadline:
        if system.process_state(pid) == "running":
            return True
        system.run(500)
    return system.process_state(pid) == "running"


def wait_counter_caught_up(system, pid, n, max_ms=120_000):
    """Run until the (recovered) counter has re-seen all n inputs."""
    deadline = system.engine.now + max_ms
    while system.engine.now < deadline:
        program = system.program_of(pid)
        if program is not None and len(program.seen) >= n:
            return
        system.run(500)


def assert_exact(counter, driver, n=N):
    assert counter.seen == list(range(1, n + 1)), "lost/dup/reordered inputs"
    assert driver.replies == expected_totals(n), "client saw wrong answers"


class TestProcessCrash:
    def test_crash_without_checkpoint_replays_from_image(self, two_node_system):
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=N)
        system.run(1500)
        system.crash_process(counter_pid)
        counter, driver = finish(system, counter_pid, driver_pid)
        assert_exact(counter, driver)
        assert system.recovery.stats.recoveries_completed == 1

    def test_crash_with_checkpoint_restores_state(self, two_node_system):
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=N)
        system.run(1500)
        assert system.checkpoint(counter_pid)
        system.run(500)
        system.crash_process(counter_pid)
        counter, driver = finish(system, counter_pid, driver_pid)
        assert_exact(counter, driver)

    def test_recovered_instance_is_a_fresh_object(self, two_node_system):
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=10)
        system.run(1500)
        original = system.program_of(counter_pid)
        system.crash_process(counter_pid)
        assert wait_recovered(system, counter_pid)
        counter, driver = finish(system, counter_pid, driver_pid, n=10)
        assert counter is not original

    def test_messages_during_recovery_are_not_lost(self, two_node_system):
        """The driver keeps sending while the counter recovers; the
        recorder buffers and replays everything (§3.2.1)."""
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=N)
        system.run(1200)
        system.crash_process(counter_pid)
        # Immediately push extra traffic from a second client.
        kernel = system.nodes[1].kernel
        dpcb = kernel.processes[driver_pid]
        extra = kernel.forge_link(dpcb, Link(dst=counter_pid))
        counter, driver = finish(system, counter_pid, driver_pid)
        assert_exact(counter, driver)

    def test_double_crash_recovers_twice(self, two_node_system):
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=N)
        system.run(1200)
        system.crash_process(counter_pid)
        system.run(15_000)
        assert system.process_state(counter_pid) == "running"
        system.crash_process(counter_pid)
        assert wait_recovered(system, counter_pid)
        wait_counter_caught_up(system, counter_pid, N)
        counter, driver = finish(system, counter_pid, driver_pid)
        assert_exact(counter, driver)
        assert system.recovery.stats.recoveries_completed == 2

    def test_recursive_crash_during_recovery(self, two_node_system):
        """§3.5: a crash of a process that is still being recovered
        terminates the old recovery process and starts a new one."""
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=N)
        system.run(1200)
        system.crash_process(counter_pid)
        # Step until the recreate lands and the process is recovering,
        # then crash it again mid-replay.
        for _ in range(2000):
            pcb = system.nodes[2].kernel.processes.get(counter_pid)
            if pcb is not None and pcb.state is ProcessState.RECOVERING:
                break
            system.run(5)
        assert pcb is not None and pcb.state is ProcessState.RECOVERING
        system.nodes[2].kernel.crash_process(counter_pid)
        counter, driver = finish(system, counter_pid, driver_pid)
        assert_exact(counter, driver)
        assert system.recovery.stats.recoveries_started >= 2

    def test_sender_crash_does_not_duplicate_sends(self, two_node_system):
        """Crash the *driver*: its regenerated sends must be suppressed
        up to the recorded last-sent sequence (§4.7)."""
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=N)
        system.run(1500)
        system.crash_process(driver_pid)
        counter, driver = finish(system, counter_pid, driver_pid)
        assert_exact(counter, driver)
        suppressed = system.obs.bus.count("recovery", str(driver_pid))
        assert suppressed > 0

    def test_both_parties_crash_sequentially(self, two_node_system):
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=N)
        system.run(1000)
        system.crash_process(counter_pid)
        system.run(12_000)
        system.crash_process(driver_pid)
        counter, driver = finish(system, counter_pid, driver_pid)
        assert_exact(counter, driver)


class TestNodeCrash:
    def test_watchdog_detects_and_recovers_node(self, two_node_system):
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=N)
        system.run(1500)
        system.crash_node(2)
        counter, driver = finish(system, counter_pid, driver_pid)
        assert_exact(counter, driver)
        assert system.recovery.stats.node_crashes_detected >= 1
        assert system.nodes[2].up

    def test_kernel_process_recovered_with_node(self, two_node_system):
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=20)
        system.run(1500)
        system.crash_node(2)
        finish(system, counter_pid, driver_pid, n=20)
        assert wait_recovered(system, kernel_pid(2))
        kp = system.nodes[2].kernel.processes.get(kernel_pid(2))
        assert kp is not None and kp.state is ProcessState.RUNNING

    def test_node_crash_of_services_node(self):
        """Crash the node hosting NLS/PM/MS: the system processes come
        back and the control chain works again."""
        system = System(SystemConfig(nodes=2))
        register_test_programs(system)
        system.boot()
        counter_pid, driver_pid = run_counter_scenario(
            system, n=20, counter_node=2, driver_node=2)
        system.run(1500)
        system.crash_node(1)             # services node
        services = system.config.services_node
        for local in (1, 2, 3):
            assert wait_recovered(system, ProcessId(services, local))
        wait_counter_caught_up(system, counter_pid, 20)
        counter, driver = finish(system, counter_pid, driver_pid, n=20)
        assert_exact(counter, driver, n=20)
        for local in (1, 2, 3):
            assert system.process_state(ProcessId(services, local)) == "running"

    def test_both_nodes_crash(self, two_node_system):
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=30)
        system.run(1500)
        system.crash_node(1)
        system.crash_node(2)
        counter, driver = finish(system, counter_pid, driver_pid, n=30)
        assert_exact(counter, driver, n=30)

    @pytest.mark.parametrize("window", [
        1,
        pytest.param(4, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 1 (ii): a restarted node's transport numbers "
            "its streams from 0 while its peers keep _expected_seq, so "
            "with transport_window > 1 its fresh segments are acked and "
            "dropped as stale duplicates — 12 of 40 replies, total 78 of "
            "820, no dead letter, no counter"))),
    ])
    def test_sender_node_crash_loses_nothing_at_any_window(self, window):
        """In-order delivery per processor and transparent node recovery
        must compose: crash the driver's node mid-conversation."""
        system = System(SystemConfig(nodes=2, transport_window=window))
        register_test_programs(system)
        system.boot()
        counter_pid, driver_pid = run_counter_scenario(system, n=40)
        system.run(700)
        system.crash_node(1)
        system.run(60_000)
        counter = system.program_of(counter_pid)
        driver = system.program_of(driver_pid)
        assert system.obs.bus.count("dead_letter") == 0
        assert_exact(counter, driver, n=40)
        assert counter.total == 820


class TestChannelsAndRecovery:
    class PriorityWorker(Program):
        """Starts listening only to channel 9; an ('open',) message on
        that channel widens the mask to all channels. All mask changes
        are message-driven, so the behaviour is deterministic and
        recoverable."""

        def __init__(self):
            super().__init__()
            self._channels = (9,)
            self.handled = []

        def on_message(self, ctx, m):
            self.handled.append((m.channel, m.body))
            if m.body == ("open",):
                ctx.set_channels()      # all channels

    def test_out_of_order_reads_replay_identically(self):
        """A process that used channels to read out of arrival order
        must see the same consumption sequence after recovery (§4.4.2)."""
        system = System(SystemConfig(nodes=2))
        system.registry.register("test/priority", self.PriorityWorker)
        system.boot()
        pid = system.spawn_program("test/priority", node=2)
        system.run(200)
        k1 = system.nodes[1].kernel
        sender_pcb = k1.processes[kernel_pid(1)]
        normal = k1.forge_link(sender_pcb, Link(dst=pid, channel=0))
        urgent = k1.forge_link(sender_pcb, Link(dst=pid, channel=9))
        for i in range(3):
            k1.syscall_send(sender_pcb, normal, ("n", i), None, 64)
        for i in range(2):
            k1.syscall_send(sender_pcb, urgent, ("u", i), None, 64)
        system.run(3000)
        # Only urgent traffic consumed so far — out-of-order reads.
        assert system.program_of(pid).handled == [(9, ("u", 0)), (9, ("u", 1))]
        record = system.recorder.db.get(pid)
        assert len(record.advisories) >= 1
        # Open the mask via a message, drain the normals.
        k1.syscall_send(sender_pcb, urgent, ("open",), None, 64)
        system.run(3000)
        handled_before = list(system.program_of(pid).handled)
        assert handled_before == [
            (9, ("u", 0)), (9, ("u", 1)), (9, ("open",)),
            (0, ("n", 0)), (0, ("n", 1)), (0, ("n", 2)),
        ]
        system.crash_process(pid)
        system.run(60_000)
        assert system.process_state(pid) == "running"
        assert system.program_of(pid).handled == handled_before

    def test_out_of_order_reads_with_checkpoint_mid_pattern(self):
        """Checkpoint while skipped messages are still queued: the
        invalidation set is the *consumed* messages, not a prefix."""
        system = System(SystemConfig(nodes=2))
        system.registry.register("test/priority", self.PriorityWorker)
        system.boot()
        pid = system.spawn_program("test/priority", node=2)
        system.run(200)
        k1 = system.nodes[1].kernel
        sender_pcb = k1.processes[kernel_pid(1)]
        normal = k1.forge_link(sender_pcb, Link(dst=pid, channel=0))
        urgent = k1.forge_link(sender_pcb, Link(dst=pid, channel=9))
        for i in range(3):
            k1.syscall_send(sender_pcb, normal, ("n", i), None, 64)
        for i in range(2):
            k1.syscall_send(sender_pcb, urgent, ("u", i), None, 64)
        system.run(3000)
        # Checkpoint now: u0,u1 consumed; n0..n2 still queued.
        assert system.checkpoint(pid)
        system.run(1000)
        k1.syscall_send(sender_pcb, urgent, ("open",), None, 64)
        system.run(3000)
        handled_before = list(system.program_of(pid).handled)
        system.crash_process(pid)
        system.run(60_000)
        assert system.program_of(pid).handled == handled_before
        # The replay skipped the pre-checkpoint consumptions.
        assert system.recovery.stats.messages_replayed <= 4


class TestGeneratorRecovery:
    class Summer(GeneratorProgram):
        """Pull-style accumulator with a reply per message."""

        def __init__(self):
            super().__init__()
            self.sums = []

        def run(self, ctx):
            total = 0
            while True:
                m = yield Recv()
                if m.body[0] == "add":
                    total += m.body[1]
                    self.sums.append(total)
                    if m.passed_link_id is not None:
                        ctx.send(m.passed_link_id, ("total", total))

    def test_generator_program_recovers_by_full_replay(self):
        system = System(SystemConfig(nodes=2))
        register_test_programs(system)
        system.registry.register("test/summer", self.Summer)
        system.boot()
        summer_pid = system.spawn_program("test/summer", node=2)
        driver_pid = system.spawn_program("test/driver",
                                          args=(tuple(summer_pid), 30), node=1)
        system.run(1500)
        system.crash_process(summer_pid)
        deadline = system.engine.now + 120_000
        while (system.engine.now < deadline
               and len(system.program_of(driver_pid).replies) < 30):
            system.run(1000)
        assert system.program_of(driver_pid).replies == expected_totals(30)
        assert system.program_of(summer_pid).sums[-1] == expected_totals(30)[-1]


class TestRecoveryMechanics:
    def test_replay_uses_checkpoint_to_skip_consumed(self, two_node_system):
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=N)
        system.run(2500)
        consumed_at_ckpt = system.nodes[2].kernel.processes[counter_pid].consumed
        assert system.checkpoint(counter_pid)
        system.run(500)
        system.crash_process(counter_pid)
        counter, driver = finish(system, counter_pid, driver_pid)
        assert_exact(counter, driver)
        # Replay count is bounded by what happened after the checkpoint.
        assert system.recovery.stats.messages_replayed < N

    def test_recovery_reads_the_checkpoint_at_the_size_it_was_written(self):
        """Bugfix regression: the recorder stored a checkpoint as
        ``pages * costs.page_bytes`` and recovery read it back (and
        sized the recreate frame) as ``pages * 1024``."""
        from repro.demos.costs import CostModel
        system = System(SystemConfig(nodes=2, costs=CostModel(page_bytes=2048)))
        register_test_programs(system)
        system.boot()
        counter_pid, driver_pid = run_counter_scenario(system, n=20)
        system.run(1500)
        ops = []
        disks = system.recorder.disks
        submit = disks.submit
        disks.submit = lambda op, size, on_done=None: (
            ops.append((op, size)), submit(op, size, on_done))[1]
        assert system.checkpoint(counter_pid)
        system.run(500)
        pages = system.recorder.db.get(counter_pid).checkpoint.pages
        assert ("write", pages * 2048) in ops
        ops.clear()
        system.crash_process(counter_pid)
        assert wait_recovered(system, counter_pid)
        assert ("read", pages * 2048) in ops
        counter, driver = finish(system, counter_pid, driver_pid, n=20)
        assert_exact(counter, driver, n=20)

    def test_marker_hand_back_loses_nothing_under_live_traffic(
            self, two_node_system):
        """Live messages racing the recovery marker are either replayed
        (before the marker) or held (after it) — never dropped."""
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=N)
        system.run(800)
        system.crash_process(counter_pid)
        counter, driver = finish(system, counter_pid, driver_pid)
        assert_exact(counter, driver)
        marker_events = system.obs.bus.count("recovery", str(counter_pid))
        assert marker_events > 0

    def test_recovery_completion_signal_fires(self, two_node_system):
        system = two_node_system
        counter_pid, driver_pid = run_counter_scenario(system, n=10)
        system.run(1000)
        fired = []

        def waiter():
            value = yield system.recovery.completion_signal(counter_pid)
            fired.append(value)

        system.engine.spawn(waiter())
        system.crash_process(counter_pid)
        assert wait_recovered(system, counter_pid)
        system.run(2000)
        assert fired == [counter_pid]

    def test_unrecoverable_process_not_recovered(self, two_node_system):
        system = two_node_system
        pid = system.spawn_program("test/counter", node=2, recoverable=False)
        system.run(500)
        system.crash_process(pid)
        system.run(20_000)
        assert system.process_state(pid) == "crashed"
        assert system.recovery.stats.recoveries_started == 0
