"""The receive path's one door (§4.4.3, §4.7): every message reaches its
process through ``ProcessHost._admit``, whether it arrives live, is
replayed by a recovery process, or was held back while replay ran.

The tests drive one booted node's kernel directly: a message is built
and handed to ``deliver_local`` (live), ``inject_replay`` (replay) or
held on the pcb until ``finish_recovery`` (hand-back).
"""

import ast
import pathlib

import pytest

from repro import System, SystemConfig
from repro.demos.ids import MessageId, ProcessId, kernel_pid
from repro.demos.messages import Message
from repro.demos.process import ProcessState
from repro.system import MS_IMAGE, NLS_IMAGE, PM_IMAGE

from conftest import register_test_programs

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
SENDER = ProcessId(1, 99)     # a pid nothing runs; only names messages


def message(dst, seq, body=("add", 1), **flags):
    return Message(msg_id=MessageId(SENDER, seq), src=SENDER, dst=dst,
                   channel=0, code=0, body=body, size_bytes=32, **flags)


def marker(dst, seq, epoch):
    return message(dst, seq, body=("recovery_marker", epoch),
                   recovery_marker=True)


@pytest.fixture
def node():
    """One booted node without publishing, a counter on it, and the
    kernel's DELIVERTOKERNEL handler replaced by a list."""
    system = System(SystemConfig(nodes=1, publishing=False))
    register_test_programs(system)
    system.boot()
    pid = system.spawn_program("test/counter", node=1)
    system.run(100)
    kernel = system.nodes[1]
    kernel.dtk_handler = (dtk := []).append
    return system, kernel, kernel.processes[pid], dtk


def recreate(system, kernel, pcb, epoch=1):
    """Put ``pcb``'s process into the recovering state, as §4.7's
    recreate request does, from its own current snapshot."""
    kernel.recreate_process(pcb.pid, pcb.image, pcb.args, (), pcb.snapshot(),
                            suppress_send_through=pcb.send_seq,
                            recoverable=True, state_pages=pcb.state_pages,
                            recovery_epoch=epoch)
    system.run(10)
    return kernel.processes[pcb.pid]


def recovery_events(system, pid):
    return [e.detail["event"] for e in system.obs.bus.select(
        category="recovery", subject=str(pid))]


def test_live_message_reaches_the_program(node):
    system, kernel, pcb, dtk = node
    kernel.deliver_local(message(pcb.pid, 1, ("add", 5)))
    system.run(50)
    assert pcb.program.total == 5 and pcb.consumed == 1
    assert len(pcb.queue) == 0 and dtk == []


def test_live_messages_are_consumed_in_arrival_order(node):
    system, kernel, pcb, _ = node
    for seq, value in enumerate((3, 1, 2), start=1):
        kernel.deliver_local(message(pcb.pid, seq, ("add", value)))
    system.run(50)
    assert pcb.program.seen == [3, 1, 2]


def test_deliver_to_kernel_goes_to_the_kernel_process_not_the_queue(node):
    system, kernel, pcb, dtk = node
    control = message(pcb.pid, 1, ("stop",), deliver_to_kernel=True)
    kernel.deliver_local(control)
    system.run(50)
    assert dtk == [control]
    assert pcb.dtk_processed == 1
    assert pcb.consumed == 0 and pcb.program.total == 0


def test_deliver_to_kernel_for_a_pid_not_held_still_reaches_the_kernel(node):
    system, kernel, _, dtk = node
    control = message(ProcessId(1, 77), 1, ("stop",), deliver_to_kernel=True)
    kernel.deliver_local(control)
    assert dtk == [control]
    assert system.obs.bus.count(category="kernel",
                                subject=str(ProcessId(1, 77))) == 0


def test_message_for_a_missing_process_is_dropped_with_an_event(node):
    system, kernel, _, dtk = node
    kernel.deliver_local(message(ProcessId(1, 77), 1))
    drops = system.obs.bus.select(category="kernel",
                                  subject=str(ProcessId(1, 77)))
    assert [e.detail["event"] for e in drops] == ["drop_no_process"]
    assert dtk == []


def test_message_for_a_destroyed_process_is_dropped(node):
    system, kernel, pcb, _ = node
    kernel.destroy_process(pcb.pid)
    kernel.deliver_local(message(pcb.pid, 1))
    system.run(50)
    assert pcb.consumed == 0 and len(pcb.queue) == 0
    assert [e.detail["event"] for e in system.obs.bus.select(
        category="kernel", subject=str(pcb.pid))] == ["drop_no_process"]


def test_stale_marker_for_a_running_process_is_ignored(node):
    system, kernel, pcb, _ = node
    kernel.deliver_local(marker(pcb.pid, 1, epoch=4))
    system.run(50)
    assert pcb.consumed == 0 and len(pcb.queue) == 0


def test_a_stopped_process_queues_until_resumed(node):
    system, kernel, pcb, _ = node
    assert kernel.stop_process(pcb.pid)
    kernel.deliver_local(message(pcb.pid, 1, ("add", 2)))
    kernel.deliver_local(message(pcb.pid, 2, ("add", 3)))
    system.run(50)
    assert len(pcb.queue) == 2 and pcb.consumed == 0
    assert kernel.resume_process(pcb.pid)
    system.run(50)
    assert pcb.program.seen == [2, 3] and len(pcb.queue) == 0


def test_a_stop_landing_while_a_handler_waits_lets_it_finish(node):
    """The message has left the queue when the stop lands: its handler
    still runs, and the next message waits for the resume."""
    system, kernel, pcb, _ = node
    kernel.deliver_local(message(pcb.pid, 1, ("add", 2)))
    assert pcb.busy                         # on the CPU, not yet run
    kernel.deliver_local(message(pcb.pid, 2, ("add", 3)))
    assert kernel.stop_process(pcb.pid)
    system.run(50)
    assert pcb.program.seen == [2] and not pcb.busy and len(pcb.queue) == 1
    assert kernel.resume_process(pcb.pid)
    system.run(50)
    assert pcb.program.seen == [2, 3] and len(pcb.queue) == 0


def test_replayed_message_reaches_a_recovering_process(node):
    system, kernel, pcb, _ = node
    pcb = recreate(system, kernel, pcb, epoch=1)
    kernel.inject_replay(message(pcb.pid, 1, ("add", 7)), recovery_epoch=1)
    system.run(50)
    assert pcb.state is ProcessState.RECOVERING
    assert pcb.program.seen == [7] and pcb.consumed == 1


def test_replayed_deliver_to_kernel_is_counted_on_the_recovering_pcb(node):
    system, kernel, pcb, dtk = node
    pcb = recreate(system, kernel, pcb, epoch=1)
    control = message(pcb.pid, 1, ("stop",), deliver_to_kernel=True)
    kernel.inject_replay(control, recovery_epoch=1)
    assert dtk == [control] and pcb.dtk_processed == 1
    assert len(pcb.queue) == 0


def test_a_replayed_stop_lets_what_was_replayed_ahead_of_it_in(node):
    """A replayed stop counts the messages replayed ahead of it, even
    those waiting for the CPU; the process consumes exactly those, so a
    hand-back that comes first leaves it running until it has, then
    stopped with what was replayed after the stop still queued."""
    system, kernel, pcb, _ = node
    pcb = recreate(system, kernel, pcb, epoch=1)
    kernel.inject_replay(message(pcb.pid, 1, ("add", 1)), recovery_epoch=1)
    kernel.inject_replay(message(pcb.pid, 2, ("add", 2)), recovery_epoch=1)
    assert pcb.busy and len(pcb.queue) == 1
    assert kernel.stop_process(pcb.pid)
    kernel.inject_replay(message(pcb.pid, 3, ("add", 3)), recovery_epoch=1)
    kernel.finish_recovery(pcb.pid, recovery_epoch=1)
    assert pcb.state is ProcessState.RUNNING     # the stop is not due yet
    system.run(50)
    assert pcb.state is ProcessState.STOPPED and pcb.program.seen == [1, 2]
    assert not kernel.checkpoint_process(pcb.pid)
    assert kernel.resume_process(pcb.pid)
    system.run(50)
    assert pcb.program.seen == [1, 2, 3]


def test_replay_from_a_superseded_recovery_is_dropped(node):
    system, kernel, pcb, dtk = node
    pcb = recreate(system, kernel, pcb, epoch=2)
    kernel.inject_replay(message(pcb.pid, 1), recovery_epoch=1)
    kernel.inject_replay(message(pcb.pid, 2, ("stop",),
                                 deliver_to_kernel=True), recovery_epoch=1)
    system.run(50)
    assert pcb.consumed == 0 and pcb.dtk_processed == 0 and dtk == []
    assert recovery_events(system, pcb.pid).count("stale_replay_dropped") == 2


def test_replay_to_a_running_process_is_ignored(node):
    system, kernel, pcb, _ = node
    kernel.inject_replay(message(pcb.pid, 1), recovery_epoch=pcb.recovery_epoch)
    system.run(50)
    assert pcb.consumed == 0 and len(pcb.queue) == 0


def test_live_traffic_is_discarded_before_the_marker_and_held_after(node):
    system, kernel, pcb, _ = node
    pcb = recreate(system, kernel, pcb, epoch=1)
    kernel.deliver_local(message(pcb.pid, 1, ("add", 100)))
    kernel.deliver_local(marker(pcb.pid, 2, epoch=0))        # superseded
    assert pcb.held_live is None
    kernel.deliver_local(marker(pcb.pid, 3, epoch=1))
    kernel.deliver_local(message(pcb.pid, 4, ("add", 10)))
    kernel.deliver_local(message(pcb.pid, 5, ("add", 20)))
    system.run(50)
    assert pcb.consumed == 0
    assert [m.body for m in pcb.held_live] == [("add", 10), ("add", 20)]
    assert recovery_events(system, pcb.pid) == [
        "recreated", "discarded_live", "stale_marker", "marker_seen"]


def test_hand_back_delivers_replay_first_then_held_traffic(node):
    system, kernel, pcb, dtk = node
    pcb = recreate(system, kernel, pcb, epoch=1)
    kernel.inject_replay(message(pcb.pid, 1, ("add", 1)), recovery_epoch=1)
    kernel.deliver_local(marker(pcb.pid, 2, epoch=1))
    kernel.deliver_local(message(pcb.pid, 3, ("add", 2)))
    held_control = message(pcb.pid, 4, ("stop",), deliver_to_kernel=True)
    kernel.deliver_local(held_control)
    kernel.deliver_local(message(pcb.pid, 5, ("add", 3)))
    system.run(50)
    assert pcb.program.seen == [1] and dtk == []
    kernel.finish_recovery(pcb.pid, recovery_epoch=1)
    # the held control executes at the kernel during the hand-back; the
    # held user messages follow the replayed one in arrival order
    assert dtk == [held_control] and pcb.dtk_processed == 1
    assert pcb.state is ProcessState.RUNNING and pcb.held_live is None
    system.run(50)
    assert pcb.program.seen == [1, 2, 3]
    assert recovery_events(system, pcb.pid)[-1] == "live"


def test_hand_back_from_a_superseded_recovery_keeps_the_process_recovering(node):
    system, kernel, pcb, _ = node
    pcb = recreate(system, kernel, pcb, epoch=2)
    kernel.deliver_local(marker(pcb.pid, 1, epoch=2))
    kernel.deliver_local(message(pcb.pid, 2, ("add", 4)))
    kernel.finish_recovery(pcb.pid, recovery_epoch=1)
    system.run(50)
    assert pcb.state is ProcessState.RECOVERING
    assert pcb.consumed == 0 and len(pcb.held_live) == 1


def test_only_the_one_door_appends_to_a_process_queue():
    """No path but ``_admit`` puts a message on a pcb's queue, so a
    check on what a process admits has one place to go."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if "net" in path.relative_to(SRC).parts:
            continue   # transport lanes have queues of their own
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in ("append", "appendleft",
                                               "extend", "insert")
                        and isinstance(call.func.value, ast.Attribute)
                        and call.func.value.attr == "queue"):
                    found.append((path.relative_to(SRC).as_posix(), fn.name))
    assert found == [("demos/kernel.py", "_admit")]


@pytest.mark.parametrize("first_node_id", [1, 50])
def test_boot_starts_the_system_processes_on_the_first_node(first_node_id):
    system = System(SystemConfig(nodes=2, publishing=False,
                                 first_node_id=first_node_id))
    system.boot()
    for node_id, node in system.nodes.items():
        images = {pid: pcb.image for pid, pcb in node.processes.items()
                  if pid != kernel_pid(node_id)}
        if node_id == first_node_id:
            assert images == {ProcessId(node_id, 1): NLS_IMAGE,
                              ProcessId(node_id, 2): PM_IMAGE,
                              ProcessId(node_id, 3): MS_IMAGE}
        else:
            assert images == {}
        assert node.processes[kernel_pid(node_id)].alive()
