"""Tests for the message kernel: kernel calls, routing, channels,
advisories, CPU accounting, and crash primitives."""

import pytest

from repro import Program, Recv, GeneratorProgram, System, SystemConfig
from repro.demos.ids import ProcessId, kernel_pid
from repro.demos.links import Link
from repro.demos.messages import MAX_BODY_BYTES, Message
from repro.demos.process import ProcessState
from repro.errors import ProcessError

from conftest import (
    CounterProgram,
    expected_totals,
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


# ----------------------------------------------------------------------
# §4.7: regenerated sends at or below suppress_send_through
# ----------------------------------------------------------------------
@pytest.fixture
def built_messages(monkeypatch):
    """The msg_id of every ``Message`` constructed, by anyone."""
    built, check = [], Message.__post_init__
    monkeypatch.setattr(
        Message, "__post_init__",
        lambda message: built.append(message.msg_id) or check(message))
    return built


def suppressed_sends(system, pid):
    return [e.detail["seq"]
            for e in system.obs.bus.select("recovery", str(pid))
            if e.detail["event"] == "suppressed_send"]


def test_suppressed_send_does_everything_but_build_the_message(
        two_node_system, built_messages):
    """A send the original already made is sequenced, charged, traced,
    moves its passed link and is refused for a bad size exactly as the
    original was — through ``syscall_send`` and ``send_as`` alike — and
    constructs nothing."""
    system = two_node_system
    pid = system.spawn_program("test/counter", node=1)
    system.run(100)
    kernel = system.nodes[1].kernel
    pcb = kernel.processes[pid]
    remote = ProcessId(2, 1)
    to = kernel.forge_link(pcb, Link(dst=remote, channel=3, code=4))
    reply = kernel.syscall_create_link(pcb, 0, 1)
    first = pcb.send_seq + 1
    pcb.suppress_send_through = first + 3
    del built_messages[:]
    sent, cpu_ms = kernel.messages_sent.value, kernel.cpu.kernel_ms.value
    send_cost = kernel.config.costs.message_cpu_ms(True, "send")

    assert kernel.syscall_send(pcb, to, ("again",), reply, 64) is True
    assert not pcb.links.has(reply)                 # moved out, as before
    kernel.send_as(pcb, remote, ("again",), size_bytes=64)
    assert pcb.send_seq == first + 1
    assert kernel.cpu.kernel_ms.value == pytest.approx(cpu_ms + 2 * send_cost)
    for size in (0, MAX_BODY_BYTES + 1):            # costs a number, no CPU
        with pytest.raises(ValueError, match="message body must be 1..1024"):
            kernel.syscall_send(pcb, to, ("again",), None, size)
    assert pcb.send_seq == first + 3
    assert kernel.cpu.kernel_ms.value == pytest.approx(cpu_ms + 2 * send_cost)
    system.run(500)
    assert kernel.messages_sent.value == sent
    assert suppressed_sends(system, pid) == [first, first + 1]
    assert built_messages == []

    kernel.send_as(pcb, remote, ("new",), size_bytes=64)    # past the mark
    assert [tuple(mid) for mid in built_messages] == [(pid, first + 4)]
    assert kernel.messages_sent.value == sent + 1


def test_replay_builds_no_message_for_the_replies_it_suppresses(
        two_node_system, built_messages):
    """Recovering the counter replays its N logged requests; it answers
    each one again and every answer is suppressed. N sends charged and
    traced, no ``Message`` constructed for any of them."""
    system = two_node_system
    n = 12
    counter_pid, driver_pid = run_counter_scenario(system, n=n)
    system.run(6000)
    assert system.program_of(driver_pid).replies == expected_totals(n)
    kernel = system.nodes[2].kernel
    sent = kernel.messages_sent.value
    del built_messages[:]
    system.crash_process(counter_pid)
    system.run(8000)
    assert system.program_of(counter_pid).total == sum(range(1, n + 1))
    assert suppressed_sends(system, counter_pid) == list(range(1, n + 1))
    assert system.program_of(driver_pid).replies == expected_totals(n)
    assert kernel.messages_sent.value == sent
    assert [mid for mid in built_messages if mid.sender == counter_pid] == []
