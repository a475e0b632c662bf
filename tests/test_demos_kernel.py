"""Tests for the message kernel: kernel calls, routing, channels,
advisories, CPU accounting, and crash primitives."""

import pytest

from repro import Program, Recv, GeneratorProgram, System, SystemConfig
from repro.demos.ids import ProcessId, kernel_pid
from repro.demos.links import Link
from repro.demos.process import ProcessState
from repro.errors import ProcessError

from conftest import (
    CounterProgram,
    register_test_programs,
    run_counter_scenario,
    wire_driver,
)


class ChannelProgram(Program):
    """Reads channel 5 first when told to, recording the order."""

    def __init__(self):
        super().__init__()
        self.order = []

    def on_message(self, ctx, m):
        self.order.append((m.channel, m.body))


class SelfTalker(GeneratorProgram):
    """Creates a link to itself and converses on two channels."""

    def __init__(self):
        super().__init__()
        self.heard = []

    def run(self, ctx):
        urgent = ctx.create_link(channel=5, code=50)
        normal = ctx.create_link(channel=0, code=10)
        ctx.send(normal, "routine-1")
        ctx.send(normal, "routine-2")
        ctx.send(urgent, "urgent!")
        # Selective receive: the urgent channel jumps the queue.
        m = yield Recv.on(5)
        self.heard.append(m.body)
        m = yield Recv()
        self.heard.append(m.body)
        m = yield Recv()
        self.heard.append(m.body)


def test_send_requires_held_link(two_node_system):
    system = two_node_system
    pid = system.spawn_program("test/counter", node=1)
    system.run(100)
    pcb = system.nodes[1].kernel.processes[pid]
    ok = system.nodes[1].kernel.syscall_send(pcb, link_id=999, body="x",
                                             pass_link_id=None, size_bytes=32)
    assert ok is False


def test_intranode_message_travels_network_when_publishing(two_node_system):
    system = two_node_system
    before = system.medium.stats.frames_offered.value
    counter_pid, driver_pid = run_counter_scenario(system, n=3,
                                                   counter_node=1,
                                                   driver_node=1)
    system.run(3000)
    assert system.program_of(counter_pid).total == 6
    assert system.medium.stats.frames_offered.value > before   # went on the wire


def test_intranode_message_stays_local_without_publishing(no_publishing_system):
    system = no_publishing_system
    counter_pid, driver_pid = run_counter_scenario(system, n=3,
                                                   counter_node=1,
                                                   driver_node=1)
    before = system.medium.stats.frames_offered.value
    system.run(3000)
    assert system.program_of(counter_pid).total == 6
    assert system.medium.stats.frames_offered.value == before


def test_channel_selective_receive_jumps_queue():
    system = System(SystemConfig(nodes=1))
    system.registry.register("test/selftalk", SelfTalker)
    system.boot()
    pid = system.spawn_program("test/selftalk", node=1)
    system.run(5000)
    program = system.program_of(pid)
    # The urgent message was sent last but read first (§4.2.2.2).
    assert program.heard == ["urgent!", "routine-1", "routine-2"]
    # The generator completed, so the process exited.
    assert system.process_state(pid) == "dead"


def test_out_of_order_read_sends_advisory():
    system = System(SystemConfig(nodes=1))
    system.registry.register("test/selftalk", SelfTalker)
    system.boot()
    pid = system.spawn_program("test/selftalk", node=1)
    system.run(5000)
    record = system.recorder.db.get(pid)
    assert record is not None
    assert len(record.advisories) >= 1   # the urgent read skipped the head


def test_passed_link_moves_between_tables(two_node_system):
    system = two_node_system
    counter_pid, driver_pid = run_counter_scenario(system, n=1)
    system.run(3000)
    # The driver created a reply link and passed it; the counter used it
    # to answer. The reply landed back at the driver.
    assert system.program_of(driver_pid).replies == [1]


def test_exit_destroys_process():
    system = System(SystemConfig(nodes=1))

    class OneShot(Program):
        def on_message(self, ctx, m):
            ctx.exit()

    system.registry.register("test/oneshot", OneShot)
    system.boot()
    pid = system.spawn_program("test/oneshot", node=1)
    system.run(100)
    pcb = system.nodes[1].kernel.processes[pid]
    kernel = system.nodes[1].kernel
    link = kernel.forge_link(pcb, Link(dst=pid))
    kernel.syscall_send(pcb, link, ("die",), None, 32)
    system.run(1000)
    assert system.process_state(pid) in (None, "dead")


def test_duplicate_pid_rejected():
    system = System(SystemConfig(nodes=1))
    register_test_programs(system)
    system.boot()
    pid = system.spawn_program("test/counter", node=1)
    with pytest.raises(ProcessError):
        system.nodes[1].kernel.create_process("test/counter", pid=pid)


def test_crash_process_reports_to_recorder(two_node_system):
    system = two_node_system
    pid = system.spawn_program("test/counter", node=1)
    system.run(200)
    system.nodes[1].kernel.crash_process(pid)
    assert system.nodes[1].kernel.processes[pid].state is ProcessState.CRASHED
    system.run(20_000)
    # The crash report reached the recovery manager, which recovered it.
    assert system.recovery.stats.process_crash_reports == 1
    assert system.recovery.stats.recoveries_completed == 1
    assert system.process_state(pid) == "running"


def test_crash_node_clears_everything(two_node_system):
    system = two_node_system
    system.spawn_program("test/counter", node=1)
    system.run(200)
    system.nodes[1].crash()
    kernel = system.nodes[1].kernel
    assert not kernel.up
    assert kernel.processes == {}
    assert kernel.transport.queue_depth == 0


def test_cpu_accounting_separates_kernel_and_user(two_node_system):
    system = two_node_system
    counter_pid, _ = run_counter_scenario(system, n=5)
    system.run(5000)
    cpu = system.nodes[2].kernel.cpu
    assert cpu.kernel_ms.value > 0
    assert cpu.user_ms.value > 0
    assert cpu.total_ms == cpu.kernel_ms.value + cpu.user_ms.value


def test_stop_and_resume_process(two_node_system):
    system = two_node_system
    counter_pid, driver_pid = run_counter_scenario(system, n=10)
    system.run(500)
    kernel = system.nodes[2].kernel
    kernel.stop_process(counter_pid)
    snapshot_total = system.program_of(counter_pid).total
    system.run(2000)
    assert system.program_of(counter_pid).total == snapshot_total  # frozen
    kernel.resume_process(counter_pid)
    system.run(20000)
    assert system.program_of(counter_pid).total == sum(range(1, 11))


def test_checkpoint_includes_counters(two_node_system):
    system = two_node_system
    counter_pid, _ = run_counter_scenario(system, n=5)
    system.run(5000)
    assert system.checkpoint(counter_pid)
    system.run(1000)
    record = system.recorder.db.get(counter_pid)
    assert record.checkpoint is not None
    assert record.checkpoint.consumed == system.nodes[2].kernel.processes[counter_pid].consumed
    assert record.checkpoint.data["program_state"]["total"] == 15


def test_generator_program_not_checkpointable(two_node_system):
    system = two_node_system

    class Gen(GeneratorProgram):
        def run(self, ctx):
            while True:
                yield Recv()

    system.registry.register("test/gen", Gen)
    pid = system.spawn_program("test/gen", node=1)
    system.run(100)
    assert system.nodes[1].kernel.checkpoint_process(pid) is False
