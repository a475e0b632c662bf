"""Tests for the kernel process: creation requests, DELIVERTOKERNEL
control, and the Figure 4.4/4.5 MOVELINK exchange."""

import pytest

from repro import Program, Recv, GeneratorProgram, System, SystemConfig
from repro.demos.ids import ProcessId, kernel_pid
from repro.demos.links import Link

from conftest import CounterProgram, register_test_programs


class CreatorProgram(GeneratorProgram):
    """Creates a child via a direct kernel-process request, then gives
    it a link using MOVELINK, then destroys it when told to."""

    def __init__(self):
        super().__init__()
        self.child = None
        self.phase = "start"

    def run(self, ctx):
        # Initial link 2 is a link to the local kernel process (wired by
        # the test); link 1 is the NLS.
        kp_link = 2
        reply = ctx.create_link(channel=6)
        ctx.send(kp_link, ("create", "test/counter", (), True, 2),
                 pass_link_id=reply)
        m = yield Recv.on(6)
        assert m.body[0] == "created"
        self.child = tuple(m.body[1])
        self.control_link = m.passed_link_id
        self.phase = "created"
        # Move a link to ourselves into the child's table (Figure 4.5):
        to_me = ctx.create_link(channel=0, code=123)
        ctx.send(self.control_link, ("movelink", to_me, tuple(ctx.pid)))
        self.phase = "movelink-sent"
        # Park forever; the test drives the rest.
        while True:
            m = yield Recv.on(9)
            if m.body == ("destroy-child",):
                ctx.send(self.control_link, ("destroy",))
                self.phase = "destroyed"


@pytest.fixture
def system():
    sys_ = System(SystemConfig(nodes=2))
    register_test_programs(sys_)
    sys_.registry.register("test/creator", CreatorProgram)
    sys_.boot()
    return sys_


def spawn_creator(system, node=1):
    pid = system.spawn_program("test/creator", node=node)
    # Give the creator a link to its local kernel process as link id 2.
    kernel = system.nodes[node]
    pcb = kernel.processes[pid]
    assert kernel.forge_link(pcb, Link(dst=kernel_pid(node))) == 2
    return pid


def test_create_request_produces_child_and_control_link(system):
    pid = spawn_creator(system)
    system.run(5000)
    program = system.program_of(pid)
    assert program.child is not None
    child_pid = ProcessId(*program.child)
    assert system.process_state(child_pid) == "running"
    assert child_pid.node == 1


def test_created_child_holds_nls_link(system):
    pid = spawn_creator(system)
    system.run(5000)
    child_pid = ProcessId(*system.program_of(pid).child)
    child_pcb = system.nodes[1].processes[child_pid]
    assert child_pcb.links.has(1)
    nls_pid = ProcessId(system.config.first_node_id, 1)
    assert child_pcb.links.get(1).dst == nls_pid


def test_movelink_exchange_installs_link_in_child(system):
    """The full Figure 4.5 three-message exchange."""
    pid = spawn_creator(system)
    system.run(5000)
    child_pid = ProcessId(*system.program_of(pid).child)
    child_pcb = system.nodes[1].processes[child_pid]
    # Child's table: 1 = NLS, 2 = the moved link to the creator.
    assert child_pcb.links.has(2)
    moved = child_pcb.links.get(2)
    assert moved.dst == pid
    assert moved.code == 123
    # And the link left the creator's table.
    creator_pcb = system.nodes[1].processes[pid]
    assert all(link.code != 123 for _, link in creator_pcb.links)


def test_movelink_across_nodes(system):
    """MOVELINK when requester and child live on different nodes."""
    pid = spawn_creator(system, node=2)
    system.run(8000)
    program = system.program_of(pid)
    child_pid = ProcessId(*program.child)
    assert child_pid.node == 2
    child_pcb = system.nodes[2].processes[child_pid]
    assert child_pcb.links.has(2)
    assert child_pcb.links.get(2).dst == pid


def test_destroy_via_control_link(system):
    pid = spawn_creator(system)
    system.run(5000)
    child_pid = ProcessId(*system.program_of(pid).child)
    kernel = system.nodes[1]
    pcb = kernel.processes[pid]
    poke = kernel.forge_link(pcb, Link(dst=pid, channel=9))
    kernel.syscall_send(pcb, poke, ("destroy-child",), None, 32)
    system.run(3000)
    assert system.process_state(child_pid) == "dead"
    record = system.recorder.db.get(child_pid)
    assert record.destroyed


def test_givelink_one_message_variant(system):
    pid = spawn_creator(system)
    system.run(5000)
    child_pid = ProcessId(*system.program_of(pid).child)
    kernel = system.nodes[1]
    pcb = kernel.processes[pid]
    gift = kernel.forge_link(pcb, Link(dst=pid, code=777))
    control = kernel.forge_link(pcb, Link(dst=child_pid,
                                          deliver_to_kernel=True))
    kernel.syscall_send(pcb, control, ("givelink",), pass_link_id=gift,
                        size_bytes=64)
    system.run(2000)
    child_pcb = kernel.processes[child_pid]
    assert any(link.code == 777 for _, link in child_pcb.links)


def test_stop_resume_via_control_link(system):
    pid = spawn_creator(system)
    system.run(5000)
    child_pid = ProcessId(*system.program_of(pid).child)
    kernel = system.nodes[1]
    pcb = kernel.processes[pid]
    control = kernel.forge_link(pcb, Link(dst=child_pid,
                                          deliver_to_kernel=True))
    kernel.syscall_send(pcb, control, ("stop",), None, 32)
    system.run(1000)
    assert system.process_state(child_pid) == "stopped"
    control2 = kernel.forge_link(pcb, Link(dst=child_pid,
                                           deliver_to_kernel=True))
    kernel.syscall_send(pcb, control2, ("resume",), None, 32)
    system.run(1000)
    assert system.process_state(child_pid) == "running"


def test_dtk_messages_recorded_in_controlled_process_stream(system):
    """§4.4.3: process-control messages are part of the *controlled*
    process's published stream."""
    pid = spawn_creator(system)
    system.run(5000)
    child_pid = ProcessId(*system.program_of(pid).child)
    record = system.recorder.db.get(child_pid)
    assert record is not None
    assert any(lm.is_control for lm in record.arrivals)


def test_kernel_process_allocations_survive_checkpoint(system):
    """The kernel process's pid allocator is part of its checkpointable
    state; recovery must not re-issue pids."""
    pid = spawn_creator(system)
    system.run(5000)
    kp_pcb = system.nodes[1].processes[kernel_pid(1)]
    next_before = kp_pcb.program.next_local_id
    assert system.nodes[1].checkpoint_process(kernel_pid(1))
    system.run(500)
    record = system.recorder.db.get(kernel_pid(1))
    state = record.checkpoint.data["program_state"]
    assert state["next_local_id"] == next_before
