"""§4.4.1 ack tracing: the recorder's log must reflect the order
messages were *received* by the node, not the order the recorder
overheard them.

The two orders diverge when a frame reaches the recorder but is lost at
its destination: the retransmitted copy arrives at the node *after*
other senders' messages that the recorder overheard later. Without ack
tracing, a recovered process would replay its inputs in the wrong
interleaving and reconstruct a state the rest of the system never saw.
"""

import pytest

from repro import Program, System, SystemConfig
from repro.demos.ids import MessageId, ProcessId, kernel_pid
from repro.demos.links import Link

from conftest import register_test_programs


class OrderLogger(Program):
    """Records the exact order of its inputs — order *is* its state."""

    def __init__(self):
        super().__init__()
        self.inputs = []

    def on_message(self, ctx, m):
        if isinstance(m.body, tuple) and m.body[0] == "item":
            self.inputs.append(m.body[1])


def build():
    system = System(SystemConfig(nodes=2))
    register_test_programs(system)
    system.registry.register("trace/order", OrderLogger)
    system.boot()
    pid = system.spawn_program("trace/order", node=2)
    system.run(200)
    return system, pid


def senders(system, pid):
    k1 = system.nodes[1]
    a = k1.processes[kernel_pid(1)]
    k2 = system.nodes[2]
    b = k2.processes[kernel_pid(2)]        # a second source, intranode
    link_a = k1.forge_link(a, Link(dst=pid))
    link_b = k2.forge_link(b, Link(dst=pid))
    return (k1, a, link_a), (k2, b, link_b)


def test_reception_order_logged_not_recording_order():
    system, pid = build()
    (k1, a, link_a), (k2, b, link_b) = senders(system, pid)
    # Lose A's frame at node 2 only — the recorder still records it.
    system.faults.lose_next(
        lambda f, node: node == 2 and f.kind.value == "data", count=1)
    k1.syscall_send(a, link_a, ("item", "A1"), None, 64)
    system.run(20)
    k2.syscall_send(b, link_b, ("item", "B1"), None, 64)
    system.run(5000)
    program = system.program_of(pid)
    # The node received B1 first (A1 was retransmitted later).
    assert program.inputs == ["B1", "A1"]
    record = system.recorder.db.get(pid)
    logged = [lm.message.body[1] for lm in record.arrivals]
    assert logged == ["B1", "A1"], (
        "the log must match reception order at the node")


def test_recovery_reproduces_true_interleaving_after_receiver_loss():
    system, pid = build()
    (k1, a, link_a), (k2, b, link_b) = senders(system, pid)
    system.faults.lose_next(
        lambda f, node: node == 2 and f.kind.value == "data", count=1)
    k1.syscall_send(a, link_a, ("item", "A1"), None, 64)
    system.run(20)
    k2.syscall_send(b, link_b, ("item", "B1"), None, 64)
    system.run(5000)
    original = list(system.program_of(pid).inputs)
    assert original == ["B1", "A1"]
    system.crash_process(pid)
    system.run(60_000)
    recovered = system.program_of(pid)
    assert recovered.inputs == original, (
        "replay must reproduce the interleaving the node actually saw")


def test_staged_but_undelivered_message_not_suppressed():
    """A message the recorder stored but whose receiver never got it
    must be re-sent by its recovered sender, not suppressed."""
    system, pid = build()
    (k1, a, link_a), _ = senders(system, pid)
    k1.syscall_send(a, link_a, ("item", "X1"), None, 64)
    system.run(2000)
    record = system.recorder.db.get(kernel_pid(1))
    sent_seq = system.nodes[1].processes[kernel_pid(1)].send_seq
    # Everything delivered so far is confirmed.
    assert record.confirmed_prefix == sent_seq
    # Now a send that is recorded but never delivered (receiver drops
    # every copy while we freeze the world).
    system.faults.lose_next(
        lambda f, node: node == 2 and f.kind.value == "data", count=10**6)
    k1.syscall_send(a, link_a, ("item", "X2"), None, 64)
    system.run(500)
    assert record.confirmed_prefix == sent_seq      # X2 not confirmed
    # ...but it was overheard and stored, staged at its destination
    x2 = MessageId(kernel_pid(1), sent_seq + 1)
    assert x2 in system.recorder.db.get(pid).staged
