"""The DEMOS/MP message kernel (§4.2, §4.4, §4.5).

One :class:`MessageKernel` runs per node. It owns every process control
record on the node, implements the kernel calls processes use to
communicate, routes messages through the transport layer, and carries
the publishing hooks:

* with publishing enabled, **all** messages — including intranode ones —
  are sent on the network "before routing them to the intended process"
  (§4.4.1), so the recorder overhears everything;
* when a channel-selective receive reads a message that is not the queue
  head, the kernel advises the recorder of the read order (§4.4.2);
* the kernel notifies the recorder of process creation and destruction
  (§4.5);
* during recovery the kernel runs the receiving half of the §4.7
  protocol: recreate requests, replay injection, suppression of
  regenerated sends, and the hand-back to live traffic.

CPU time is charged to the node per kernel call according to the
:class:`~repro.demos.costs.CostModel`, which is what makes the
Figure 5.7/5.8 measurement programs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.demos.costs import CostModel
from repro.demos.ids import KERNEL_LOCAL_ID, MessageId, ProcessId, kernel_pid
from repro.demos.links import Link, LinkTable
from repro.demos.messages import Control, DeliveredMessage, Message
from repro.demos.process import (
    ProcessControlRecord,
    ProcessState,
    ProgramBase,
    ProgramRegistry,
)
from repro.errors import KernelError, ProcessError
from repro.net.media import Medium
from repro.net.transport import Segment, Transport, TransportConfig
from repro.obs import MetricsRegistry, Observability
from repro.sim.engine import Engine


@dataclass
class KernelConfig:
    """Per-node kernel configuration."""

    publishing: bool = True
    recorder_node: Optional[int] = None
    costs: CostModel = field(default_factory=CostModel)
    transport: TransportConfig = field(default_factory=TransportConfig)


class NodeCpu:
    """A serialized CPU with busy-time accounting.

    ``charge`` extends the busy horizon (synchronous work inside a
    kernel call); ``run`` schedules a callback for when the CPU reaches
    it (asynchronous work like message delivery). The CPU clocks are the
    ``kernel_ms`` / ``user_ms`` :class:`~repro.obs.Counter` attributes,
    registered as ``<prefix>.kernel_ms`` / ``<prefix>.user_ms``.
    """

    def __init__(self, engine: Engine,
                 registry: Optional[MetricsRegistry] = None,
                 prefix: str = "cpu"):
        self.engine = engine
        self._busy_until = 0.0
        registry = registry or MetricsRegistry()
        self.kernel_ms = registry.counter(f"{prefix}.kernel_ms")
        self.user_ms = registry.counter(f"{prefix}.user_ms")

    @property
    def busy_until(self) -> float:
        return max(self._busy_until, self.engine.now)

    def charge(self, duration: float, user: bool = False) -> float:
        """Consume ``duration`` ms of CPU; returns the completion time."""
        start = self.busy_until
        self._busy_until = start + duration
        if user:
            self.user_ms.inc(duration)
        else:
            self.kernel_ms.inc(duration)
        return self._busy_until

    def run(self, duration: float, fn: Callable[..., Any], *args: Any,
            user: bool = False) -> None:
        """Charge ``duration`` and invoke ``fn`` when the CPU gets there."""
        done_at = self.charge(duration, user=user)
        self.engine.schedule_at(done_at, fn, *args)

    def reset(self) -> None:
        """Forget the busy horizon (node restart)."""
        self._busy_until = 0.0

    @property
    def total_ms(self) -> float:
        return self.kernel_ms.value + self.user_ms.value


class ProcessContext:
    """The API surface a program sees. Every method is a kernel call."""

    def __init__(self, kernel: "MessageKernel", pcb: ProcessControlRecord):
        self._kernel = kernel
        self._pcb = pcb

    @property
    def pid(self) -> ProcessId:
        """This process's network-wide name."""
        return self._pcb.pid

    @property
    def node(self) -> int:
        """The node the process is currently running on."""
        return self._kernel.node_id

    # -- link calls -------------------------------------------------------
    def create_link(self, channel: int = 0, code: int = 0) -> int:
        """Create a link to this process; returns its link id (§4.2.2.1)."""
        return self._kernel.syscall_create_link(self._pcb, channel, code)

    def destroy_link(self, link_id: int) -> bool:
        """Destroy a link in this process's table."""
        return self._kernel.syscall_destroy_link(self._pcb, link_id)

    def link_target(self, link_id: int) -> Optional[ProcessId]:
        """Peek at where a held link points (diagnostic; read-only)."""
        if not self._pcb.links.has(link_id):
            return None
        return self._pcb.links.get(link_id).dst

    # -- messaging ---------------------------------------------------------
    def send(self, link_id: int, body: Any, pass_link_id: Optional[int] = None,
             size_bytes: int = 128, keep_link: bool = False) -> bool:
        """Send ``body`` over a held link; returns a condition code.

        ``pass_link_id`` moves a held link into the message (§4.2.2.3);
        with ``keep_link=True`` a duplicate is passed instead.
        """
        return self._kernel.syscall_send(self._pcb, link_id, body,
                                         pass_link_id, size_bytes, keep_link)

    def set_channels(self, *channels: int) -> None:
        """Restrict future receives to the given channels (actors)."""
        program = self._pcb.program
        program._channels = tuple(channels) if channels else None

    # -- process control ------------------------------------------------
    def exit(self) -> None:
        """Terminate this process normally."""
        self._kernel.syscall_exit(self._pcb)

    def log(self, text: str, **detail: Any) -> None:
        """Emit a trace record attributed to this process."""
        self._kernel.events.emit("program", self.pid, text=text, **detail)


class MessageKernel:
    """The message kernel of one DEMOS/MP node."""

    def __init__(self, engine: Engine, node_id: int, medium: Medium,
                 config: KernelConfig, registry: ProgramRegistry,
                 obs: Optional[Observability] = None):
        self.engine = engine
        self.node_id = node_id
        self.config = config
        self.registry = registry
        #: instrumentation spine: shared when the System provides one,
        #: otherwise rides the medium's (so standalone kernels still
        #: land on the same registry as their medium and transport)
        self.obs = obs if obs is not None else medium.obs
        self.events = self.obs.scope(f"kernel.{node_id}")
        self.cpu = NodeCpu(engine, self.obs.registry,
                           f"kernel.{node_id}.cpu")
        self.processes: Dict[ProcessId, ProcessControlRecord] = {}
        self._next_local_id = 1
        self._control_seq = 0
        self.control_handlers: Dict[str, Callable[[Control, int], None]] = {}
        #: handler for DELIVERTOKERNEL messages, set by the kernel process
        self.dtk_handler: Optional[Callable[[Message], None]] = None
        self.up = True
        #: recovery hand-back bookkeeping, per recovering pid
        self._marker_seen: Dict[ProcessId, bool] = {}
        self._held_live: Dict[ProcessId, List[Message]] = {}
        #: invoked after each delivery; the checkpoint policy hooks in here
        self.after_delivery: Optional[Callable[[ProcessControlRecord], None]] = None
        #: invoked on process crash reports, creation, destruction
        self.transport = Transport(engine, medium, node_id, self._on_segment,
                                   config.transport, obs=self.obs)
        self.messages_sent = self.obs.registry.counter(
            f"kernel.{node_id}.messages_sent")
        self.messages_delivered = self.obs.registry.counter(
            f"kernel.{node_id}.messages_delivered")
        self.obs.registry.gauge_fn(
            f"kernel.{node_id}.processes", lambda: len(self.processes))

    # ------------------------------------------------------------------
    # process lifetime (primitives used by the kernel process)
    # ------------------------------------------------------------------
    def allocate_pid(self) -> ProcessId:
        """A fresh network-wide pid named after this node (§4.3.1)."""
        pid = ProcessId(self.node_id, self._next_local_id)
        self._next_local_id += 1
        return pid

    def create_process(self, image: str, args: Tuple = (),
                       pid: Optional[ProcessId] = None,
                       initial_links: Tuple[Link, ...] = (),
                       recoverable: bool = True,
                       state_pages: int = 4,
                       notify_recorder: bool = True) -> ProcessId:
        """Instantiate a program and start it running.

        ``initial_links`` are inserted into the new process's table
        before it runs ("the creating process may insert a number of
        initial links into the new process's link table").
        """
        if pid is None:
            pid = self.allocate_pid()
        if pid in self.processes and self.processes[pid].state is not ProcessState.DEAD:
            raise ProcessError(f"pid {pid} already exists on node {self.node_id}")
        program = self.registry.instantiate(image, args)
        if hasattr(program, "attach_kernel"):
            program.attach_kernel(self)     # kernel-resident programs only
        pcb = ProcessControlRecord(pid=pid, image=image, args=args,
                                   program=program, recoverable=recoverable,
                                   state_pages=state_pages)
        pcb.last_checkpoint_time = self.engine.now
        for link in initial_links:
            pcb.links.insert(link)
        self.processes[pid] = pcb
        self.events.emit("process", pid, event="created", image=image)
        if notify_recorder and self.config.publishing:
            self.send_control_to_recorder(Control("process_created", {
                "pid": pid, "image": image, "args": args,
                "initial_links": tuple(initial_links),
                "recoverable": recoverable, "state_pages": state_pages,
                "node": self.node_id,
            }))
        ctx = ProcessContext(self, pcb)
        self.cpu.run(self.config.costs.create_process_cpu_ms,
                     self._start_program, pcb, ctx)
        return pid

    def _start_program(self, pcb: ProcessControlRecord, ctx: ProcessContext) -> None:
        if pcb.state is ProcessState.DEAD:
            return
        pcb.program.start(ctx)
        self._pump(pcb)

    def destroy_process(self, pid: ProcessId, notify_recorder: bool = True) -> None:
        """Remove a process and everything the kernel holds for it."""
        pcb = self.processes.get(pid)
        if pcb is None:
            return
        pcb.state = ProcessState.DEAD
        pcb.queue.clear()
        self._marker_seen.pop(pid, None)
        self._held_live.pop(pid, None)
        self.cpu.charge(self.config.costs.destroy_process_cpu_ms)
        self.events.emit("process", pid, event="destroyed")
        if notify_recorder and self.config.publishing:
            self.send_control_to_recorder(Control("process_destroyed",
                                                  {"pid": pid, "node": self.node_id}))

    # ------------------------------------------------------------------
    # kernel calls
    # ------------------------------------------------------------------
    def syscall_create_link(self, pcb: ProcessControlRecord,
                            channel: int, code: int) -> int:
        self.cpu.charge(self.config.costs.link_call_cpu_ms)
        return pcb.links.insert(Link(dst=pcb.pid, channel=channel, code=code))

    def syscall_destroy_link(self, pcb: ProcessControlRecord, link_id: int) -> bool:
        self.cpu.charge(self.config.costs.link_call_cpu_ms)
        if not pcb.links.has(link_id):
            return False
        pcb.links.remove(link_id)
        return True

    def syscall_send(self, pcb: ProcessControlRecord, link_id: int, body: Any,
                     pass_link_id: Optional[int], size_bytes: int,
                     keep_link: bool = False) -> bool:
        if not pcb.links.has(link_id):
            return False
        link = pcb.links.get(link_id)
        passed: Optional[Link] = None
        if pass_link_id is not None:
            if not pcb.links.has(pass_link_id):
                return False
            if keep_link:
                # Duplicate-and-pass: the sender retains its copy (used
                # by servers handing out links to many clients).
                passed = pcb.links.get(pass_link_id)
            else:
                passed = pcb.links.remove(pass_link_id)
        self._send_from(pcb, link.dst, link.channel, link.code, body, passed,
                        size_bytes, link.deliver_to_kernel)
        return True

    def syscall_exit(self, pcb: ProcessControlRecord) -> None:
        self.destroy_process(pcb.pid)

    # ------------------------------------------------------------------
    # message routing
    # ------------------------------------------------------------------
    def _send_from(self, pcb: ProcessControlRecord, dst: ProcessId,
                   channel: int, code: int, body: Any,
                   passed_link: Optional[Link], size_bytes: int,
                   deliver_to_kernel: bool) -> None:
        """``pcb``'s next send: sequence it, charge the send call, and
        route the message — onto the network, or directly for the cases
        publishing does not require on the wire."""
        pcb.send_seq += 1
        seq = pcb.send_seq
        published = self._is_published(dst)
        cost = self.config.costs.message_cpu_ms(published, "send")
        if seq <= pcb.suppress_send_through:
            # A regenerated message the original already sent: the new
            # kernel "will not send any messages with ids less than this
            # id" (§4.7). The rule outlives the RECOVERING state — the
            # process may still be re-executing queued inputs after the
            # replay stream ended, and stays suppressed "until the
            # process sends a message it had not sent before the crash".
            # It is refused and charged as the original was, never built.
            Message.check_size(size_bytes)
            self.cpu.charge(cost)
            self.events.emit("recovery", pcb.pid,
                             event="suppressed_send", seq=seq)
            return
        message = Message(
            msg_id=MessageId(pcb.pid, seq), src=pcb.pid, dst=dst,
            channel=channel, code=code, body=body, passed_link=passed_link,
            size_bytes=size_bytes, deliver_to_kernel=deliver_to_kernel)
        self.messages_sent.inc()
        # The message leaves the kernel when the send call's CPU work is
        # done; scheduling through the engine keeps submissions FIFO.
        self.engine.schedule_at(self.cpu.charge(cost), self._submit,
                                message, published)

    def _submit(self, message: Message, published: bool) -> None:
        if not self.up:
            return
        if not published and message.dst.node == self.node_id:
            # Unpublished intranode message: straight to the queue.
            self.deliver_local(message)
            return
        self.transport.send(message.dst.node, message,
                            size_bytes=message.size_bytes,
                            uid=tuple(message.msg_id))

    def _is_published(self, dst: ProcessId) -> bool:
        """Does a message to ``dst`` have to travel the network for the
        recorder? Not one to a non-recoverable process on this node
        (§6.6.1): it skips the network entirely."""
        if not self.config.publishing:
            return False
        if dst.node != self.node_id:
            return True
        dst_pcb = self.processes.get(dst)
        if dst_pcb is not None and not dst_pcb.recoverable:
            return False        # §6.6.1: don't pay for the unrecoverable
        return True

    def send_control(self, dst_node: int, control: Control,
                     guaranteed: bool = True, size_bytes: int = 64) -> None:
        """Send a kernel-level control datagram to another node."""
        self._control_seq += 1
        self.transport.send(dst_node, control, size_bytes=size_bytes,
                            uid=("ctl", self.node_id, self._control_seq),
                            guaranteed=guaranteed)

    def send_control_to_recorder(self, control: Control,
                                 guaranteed: bool = True,
                                 size_bytes: int = 64) -> None:
        """Send a control to the recorder node, if one is configured."""
        if self.config.recorder_node is None:
            return
        self.send_control(self.config.recorder_node, control,
                          guaranteed=guaranteed, size_bytes=size_bytes)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_segment(self, segment: Segment) -> None:
        if not self.up:
            return
        body = segment.body
        if isinstance(body, Message):
            published = self.config.publishing
            self.cpu.charge(self.config.costs.message_cpu_ms(published, "recv")
                            - self.config.costs.recv_cpu_ms)
            self.deliver_local(body)
        elif isinstance(body, Control):
            handler = self.control_handlers.get(body.kind)
            if handler is not None:
                handler(body, segment.src_node)
        else:
            raise KernelError(f"unroutable segment body: {body!r}")

    def deliver_local(self, message: Message) -> None:
        """Hand an arriving message to its destination on this node."""
        pcb = self.processes.get(message.dst)
        if pcb is not None and pcb.state is ProcessState.RECOVERING:
            # Everything addressed to a recovering process — including
            # control traffic — is discarded or held; the recorder
            # replays it in stream order.
            self._live_message_while_recovering(pcb, message)
            return
        if message.deliver_to_kernel:
            # DELIVERTOKERNEL: "it passes the message, not to the process
            # to which it is addressed, but to the kernel process
            # residing on its node" (§4.4.3).
            self._execute_dtk(message)
            return
        if pcb is None or pcb.state is ProcessState.DEAD:
            self.events.emit("kernel", message.dst, event="drop_no_process")
            return
        if message.recovery_marker:
            return   # stale marker from a finished recovery; ignore
        self._enqueue(pcb, message)

    def _execute_dtk(self, message: Message) -> None:
        pcb = self.processes.get(message.dst)
        if pcb is not None:
            pcb.dtk_processed += 1
        if self.dtk_handler is not None:
            self.dtk_handler(message)

    def _live_message_while_recovering(self, pcb: ProcessControlRecord,
                                       message: Message) -> None:
        """§4.7: live traffic for a recovering process is discarded (the
        recorder replays it); after the marker passes, it is held and
        appended once replay completes, preserving arrival order."""
        pid = pcb.pid
        if message.recovery_marker:
            marker_epoch = message.body[1] if (
                isinstance(message.body, tuple) and len(message.body) > 1) else 0
            if marker_epoch != pcb.recovery_epoch:
                self.events.emit("recovery", pid, event="stale_marker")
                return
            self._marker_seen[pid] = True
            self.events.emit("recovery", pid, event="marker_seen")
            return
        if self._marker_seen.get(pid):
            self._held_live.setdefault(pid, []).append(message)
        else:
            self.events.emit("recovery", pid, event="discarded_live",
                             msg=message.msg_id)

    def _enqueue(self, pcb: ProcessControlRecord, message: Message) -> None:
        pcb.queue.append(message)
        self._pump(pcb)

    def _pump(self, pcb: ProcessControlRecord) -> None:
        """Deliver the next acceptable message to the program, if any."""
        if pcb.busy or not pcb.alive():
            return
        ready, channels = pcb.program.wants()
        if not ready:
            return
        message, was_head = pcb.queue.take_next(channels)
        if message is None:
            return
        if not was_head and self.config.publishing and pcb.recoverable:
            # §4.4.2: channels read this message out of arrival order;
            # tell the recorder which message was read and which was at
            # the head of the queue.
            head = pcb.queue.head()
            self.send_control_to_recorder(Control("read_order", {
                "pid": pcb.pid,
                "read": message.msg_id,
                "head": head.msg_id if head is not None else None,
            }))
        pcb.busy = True
        cost = self.config.costs.recv_cpu_ms
        self.cpu.run(cost, self._invoke_handler, pcb, message)

    def _invoke_handler(self, pcb: ProcessControlRecord, message: Message) -> None:
        if not pcb.alive():
            return
        passed_link_id: Optional[int] = None
        if message.passed_link is not None:
            passed_link_id = pcb.links.insert(message.passed_link)
        delivered = DeliveredMessage(message.code, message.channel,
                                     message.body, message.src, passed_link_id)
        pcb.consumed += 1
        pcb.msgs_since_checkpoint += 1
        pcb.replay_bytes_since_checkpoint += message.size_bytes
        user_cost = pcb.program.handler_cpu_ms
        pcb.exec_ms_since_checkpoint += user_cost
        ctx = ProcessContext(self, pcb)
        self.messages_delivered.inc()
        self.cpu.charge(user_cost, user=True)
        try:
            pcb.program.deliver(ctx, delivered)
        finally:
            pcb.busy = False
        if self.after_delivery is not None and pcb.alive():
            self.after_delivery(pcb)
        if pcb.alive():
            self.engine.call_soon(self._pump, pcb)

    # ------------------------------------------------------------------
    # privileged operations (kernel process only)
    # ------------------------------------------------------------------
    def forge_link(self, pcb: ProcessControlRecord, link: Link) -> int:
        """Insert an arbitrary link into a process's table.

        Only the kernel process uses this — it manufactures the
        DELIVERTOKERNEL control links returned from process creation and
        the initial links of new processes. User programs cannot forge
        links; they only create links to themselves (§4.2.2.1).
        """
        return pcb.links.insert(link)

    def send_as(self, pcb: ProcessControlRecord, dst: ProcessId, body: Any,
                channel: int = 0, code: int = 0,
                passed_link: Optional[Link] = None,
                deliver_to_kernel: bool = False,
                size_bytes: int = 128) -> None:
        """Send a message attributed to ``pcb`` without using a link.

        "While performing process control operations ... any messages it
        sends are attributed to the controlled process" (§4.4.3). Using
        the controlled process's send sequence keeps the suppression
        rule correct if that process is ever recovered mid-exchange.
        """
        self._send_from(pcb, dst, channel, code, body, passed_link,
                        size_bytes, deliver_to_kernel)

    def stop_process(self, pid: ProcessId) -> bool:
        """Stop a process; its queue keeps accumulating messages."""
        pcb = self.processes.get(pid)
        if pcb is None or pcb.state is not ProcessState.RUNNING:
            return False
        pcb.state = ProcessState.STOPPED
        return True

    def resume_process(self, pid: ProcessId) -> bool:
        """Resume a stopped process and drain its queue."""
        pcb = self.processes.get(pid)
        if pcb is None or pcb.state is not ProcessState.STOPPED:
            return False
        pcb.state = ProcessState.RUNNING
        self._pump(pcb)
        return True

    # ------------------------------------------------------------------
    # checkpoints (§3.3.1)
    # ------------------------------------------------------------------
    def checkpoint_process(self, pid: ProcessId) -> bool:
        """Snapshot a process and publish the checkpoint to the recorder.

        Returns False when the program style cannot be snapshotted (the
        recorder then retains the full message history instead).
        """
        pcb = self.processes.get(pid)
        if pcb is None or pcb.state is not ProcessState.RUNNING:
            return False
        program_state = pcb.program.snapshot()
        if program_state is None:
            return False
        checkpoint = {
            "program_state": program_state,
            "links": pcb.links.snapshot(),
            "send_seq": pcb.send_seq,
            "consumed": pcb.consumed,
            "dtk_processed": pcb.dtk_processed,
            "channels": getattr(pcb.program, "_channels", None),
        }
        pages = pcb.state_pages
        self.cpu.charge(self.config.costs.checkpoint_cpu_per_page_ms * pages)
        size = pages * self.config.costs.page_bytes
        self.send_control_to_recorder(
            Control("checkpoint", {
                "pid": pid, "data": checkpoint, "consumed": pcb.consumed,
                "dtk_processed": pcb.dtk_processed,
                "send_seq": pcb.send_seq, "pages": pages,
            }),
            size_bytes=min(size, 1024))
        pcb.exec_ms_since_checkpoint = 0.0
        pcb.replay_bytes_since_checkpoint = 0
        pcb.msgs_since_checkpoint = 0
        pcb.last_checkpoint_time = self.engine.now
        self.events.emit("checkpoint", pid, pages=pages)
        return True

    # ------------------------------------------------------------------
    # crash injection and recovery support (§4.6, §4.7)
    # ------------------------------------------------------------------
    def crash_process(self, pid: ProcessId, report: bool = True) -> None:
        """Halt one process on a detected fault and report the crash."""
        pcb = self.processes.get(pid)
        if pcb is None or not pcb.alive():
            return
        pcb.state = ProcessState.CRASHED
        pcb.queue.clear()
        self.events.emit("crash", pid, scope="process")
        if report:
            self.send_control_to_recorder(Control("process_crashed", {
                "pid": pid, "node": self.node_id, "error": "fault",
            }))

    def crash_node(self) -> None:
        """The whole processor fails: every process and all volatile
        kernel state is lost (§1.1.2 "rounding up")."""
        self.up = False
        self.processes.clear()
        self._next_local_id = 1
        self._marker_seen.clear()
        self._held_live.clear()
        self.transport.crash()
        self.cpu.reset()
        self.events.emit("crash", f"node{self.node_id}", scope="node")

    def restart_node(self) -> None:
        """The processor reboots with an empty kernel; the recovery
        manager will repopulate it."""
        self.up = True
        self.transport.restart()
        self.events.emit("restart", f"node{self.node_id}")

    def recreate_process(self, pid: ProcessId, image: str, args: Tuple,
                         initial_links: Tuple[Link, ...],
                         checkpoint: Optional[Dict[str, Any]],
                         suppress_send_through: int,
                         recoverable: bool = True,
                         state_pages: int = 4,
                         recovery_epoch: int = 0) -> None:
        """§4.7's recreate request: (re)build the process in the
        recovering state. If it already exists, it is destroyed first."""
        existing = self.processes.get(pid)
        if existing is not None:
            self.destroy_process(pid, notify_recorder=False)
        program = self.registry.instantiate(image, args)
        if hasattr(program, "attach_kernel"):
            program.attach_kernel(self)
        pcb = ProcessControlRecord(pid=pid, image=image, args=args,
                                   program=program, recoverable=recoverable,
                                   state_pages=state_pages)
        pcb.state = ProcessState.RECOVERING
        pcb.suppress_send_through = suppress_send_through
        pcb.recovery_epoch = recovery_epoch
        pcb.last_checkpoint_time = self.engine.now
        for link in initial_links:
            pcb.links.insert(link)
        self.processes[pid] = pcb
        self._marker_seen[pid] = False
        self._held_live[pid] = []
        ctx = ProcessContext(self, pcb)
        if checkpoint is not None:
            pcb.program.restore(checkpoint["program_state"])
            if hasattr(pcb.program, "attach_kernel"):
                pcb.program.attach_kernel(self)   # restore clears the ref
            pcb.links.restore(checkpoint["links"])
            pcb.send_seq = checkpoint["send_seq"]
            pcb.consumed = checkpoint["consumed"]
            pcb.dtk_processed = checkpoint.get("dtk_processed", 0)
            if checkpoint.get("channels") is not None:
                pcb.program._channels = checkpoint["channels"]
            reload_ms = (self.config.costs.checkpoint_cpu_per_page_ms
                         * state_pages)
            self.cpu.charge(reload_ms)
        else:
            # Restart from the initial image (binary) and let replay do
            # the rest — the thesis's initial implementation.
            self.cpu.run(self.config.costs.create_process_cpu_ms,
                         self._start_program, pcb, ctx)
        self.events.emit("recovery", pid, event="recreated",
                         from_checkpoint=checkpoint is not None)

    def inject_replay(self, message: Message, recovery_epoch: int = 0) -> None:
        """The recovery process's special call: feed one published
        message to a recovering process, bypassing links (§4.7).

        Replay traffic from a superseded recovery process (§3.5) carries
        a stale epoch and is dropped — without this, controls already in
        flight when a recursive crash restarted recovery would leak into
        the new incarnation's stream.
        """
        pcb = self.processes.get(message.dst)
        if pcb is None or pcb.state is not ProcessState.RECOVERING:
            return
        if recovery_epoch != pcb.recovery_epoch:
            self.events.emit("recovery", message.dst,
                             event="stale_replay_dropped")
            return
        if message.deliver_to_kernel:
            # Replayed process-control traffic executes at the kernel
            # level, "just like all other messages" in stream order.
            self._execute_dtk(message)
            return
        self._enqueue(pcb, message)

    def finish_recovery(self, pid: ProcessId, recovery_epoch: int = 0) -> None:
        """Replay complete: append held live traffic and go live."""
        pcb = self.processes.get(pid)
        if pcb is None or pcb.state is not ProcessState.RECOVERING:
            return
        if recovery_epoch != pcb.recovery_epoch:
            return
        pcb.state = ProcessState.RUNNING
        for message in self._held_live.pop(pid, []):
            if message.deliver_to_kernel:
                self._execute_dtk(message)
            else:
                pcb.queue.append(message)
        self._marker_seen.pop(pid, None)
        self.events.emit("recovery", pid, event="live")
        self._pump(pcb)

    # ------------------------------------------------------------------
    def process_states(self) -> Dict[ProcessId, str]:
        """pid → state name, for the recorder's restart queries (§3.3.4)."""
        return {pid: pcb.state.value for pid, pcb in self.processes.items()
                if pcb.state is not ProcessState.DEAD}
