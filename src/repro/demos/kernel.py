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

A node *is* its kernel: the kernel answers the controls that operate
below the process level itself — the watchdog's "are you alive" (§4.6),
the recorder's restart-time state query with its echoed restart number
(§3.3.4, §3.4), the recovery controls (§4.7) and the gossip layer's
pull requests.

The kernel calls, the receive path and the §4.7 rebuild are
:class:`ProcessHost`; the replay debugger runs a process through the
same code. CPU time is charged to the node per kernel call according
to the Chapter 5's kernel costs in :mod:`repro.costs`, which is what
makes the Figure 5.7/5.8 measurement programs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro import costs
from repro.demos.ids import MessageId, ProcessId, kernel_pid
from repro.demos.kernel_process import KERNEL_PROCESS_IMAGE
from repro.demos.links import Link
from repro.demos.messages import (DEFAULT_BODY_BYTES, AliveReply, AreYouAlive,
                                  Checkpoint, Control, DeliveredMessage,
                                  GossipPull, GossipSupply, Message,
                                  ProcessCreated, ProcessCrashed,
                                  ProcessDestroyed, ReadOrder, Recreate,
                                  RecoveryDone, Replay, StateQuery,
                                  StateReply, StopPoint)
from repro.demos.process import (
    ProcessControlRecord,
    ProcessState,
    ProgramRegistry,
)
from repro.errors import KernelError, ProcessError
from repro.net.frames import canonical_bytes
from repro.net.media import Medium
from repro.net.transport import Segment, Transport, TransportConfig
from repro.obs import MetricsRegistry, Observability
from repro.sim.engine import Engine


@dataclass
class KernelConfig:
    """Per-node kernel configuration: publishing is on exactly when
    there is a recorder to publish to."""

    recorder_node: Optional[int] = None
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


class ProcessContext:
    """The API surface a program sees. Every method is a kernel call."""

    def __init__(self, kernel: "ProcessHost", pcb: ProcessControlRecord):
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

    # -- messaging ---------------------------------------------------------
    def send(self, link_id: int, body: Any, pass_link_id: Optional[int] = None,
             size_bytes: int = DEFAULT_BODY_BYTES,
             keep_link: bool = False) -> bool:
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


class ProcessHost:
    """The kernel calls (§4.2.2), the receive path and §4.7's rebuild of
    a process, defined once for both kernels that run programs: the
    :class:`MessageKernel` and the replay debugger, the kernel of one
    offline process. A host provides ``registry``, ``node_id``,
    ``engine``, ``cpu``, ``publishing``, ``events``, ``processes`` and
    ``messages_delivered``, and ``_send_from``, which takes a sequenced
    send off the process; with ``publishing`` it also provides
    ``send_control_to_recorder``.
    """

    #: invoked after each delivery; the checkpoint policy hooks in here
    after_delivery: Optional[Callable[[ProcessControlRecord], None]] = None
    #: handler for DELIVERTOKERNEL messages, set by the kernel process
    dtk_handler: Optional[Callable[[Message], None]] = None

    def _new_pcb(self, pid: ProcessId, image: str, args: Tuple,
                 initial_links: Tuple[Link, ...], recoverable: bool,
                 state_pages: int) -> ProcessControlRecord:
        """Instantiate ``image``'s program in a pcb the caller enters in
        the table.

        ``initial_links`` are inserted into the new process's table
        before it runs ("the creating process may insert a number of
        initial links into the new process's link table").
        """
        program = self.registry.instantiate(image, args)
        if hasattr(program, "attach_kernel"):
            program.attach_kernel(self)     # kernel-resident programs only
        pcb = ProcessControlRecord(pid=pid, image=image, args=args,
                                   program=program, recoverable=recoverable,
                                   state_pages=state_pages)
        pcb.last_checkpoint_time = self.engine.now
        for link in initial_links:
            pcb.links.insert(link)
        return pcb

    def _start_program(self, pcb: ProcessControlRecord, ctx: ProcessContext) -> None:
        if pcb.state in (ProcessState.DEAD, ProcessState.CRASHED):
            return     # destroyed, crashed or its node crashed before it started
        pcb.program.start(ctx)
        self._pump(pcb)

    def destroy_process(self, pid: ProcessId, notify_recorder: bool = True) -> None:
        """Remove a process and everything the kernel holds for it."""
        pcb = self.processes.get(pid)
        if pcb is None:
            return
        pcb.state = ProcessState.DEAD
        pcb.queue.clear()
        self.cpu.charge(costs.DESTROY_PROCESS_CPU_MS)
        self.events.emit("process", pid, event="destroyed")
        if notify_recorder and self.publishing:
            self.send_control_to_recorder(ProcessDestroyed(pid, self.node_id))

    # -- kernel calls -----------------------------------------------------
    def syscall_create_link(self, pcb: ProcessControlRecord,
                            channel: int, code: int) -> int:
        self.cpu.charge(costs.LINK_CALL_CPU_MS)
        return pcb.links.insert(Link(dst=pcb.pid, channel=channel, code=code))

    def syscall_destroy_link(self, pcb: ProcessControlRecord, link_id: int) -> bool:
        self.cpu.charge(costs.LINK_CALL_CPU_MS)
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

    def forge_link(self, pcb: ProcessControlRecord, link: Link) -> int:
        """Insert an arbitrary link into a process's table.

        Only the kernel process uses this — it manufactures the
        DELIVERTOKERNEL control links returned from process creation and
        the initial links of new processes. User programs cannot forge
        links; they only create links to themselves (§4.2.2.1).
        """
        return pcb.links.insert(link)

    # -- process control (§4.4.3; the kernel process only) ---------------
    def send_as(self, pcb: ProcessControlRecord, dst: ProcessId, body: Any,
                channel: int = 0, code: int = 0,
                passed_link: Optional[Link] = None,
                deliver_to_kernel: bool = False,
                size_bytes: int = DEFAULT_BODY_BYTES) -> None:
        """Send a message attributed to ``pcb`` without using a link.

        "While performing process control operations ... any messages it
        sends are attributed to the controlled process" (§4.4.3). Using
        the controlled process's send sequence keeps the suppression
        rule correct if that process is ever recovered mid-exchange.
        """
        self._send_from(pcb, dst, channel, code, body, passed_link,
                        size_bytes, deliver_to_kernel)

    def stop_process(self, pid: ProcessId,
                     stop: Optional[MessageId] = None) -> bool:
        """Stop a process; its queue keeps accumulating messages.

        A live stop lets the handler already on the CPU finish and tells
        the recorder how many messages the process has then consumed
        (a :class:`StopPoint` for the stop message ``stop``). The stop
        is logged in the process's own stream (§4.4.3), so a recovery
        replays it; the recovering process learns the counts from its
        ``Recreate`` and consumes no message past one until the stop
        and its resume have replayed, however much replay has queued by
        then. It is handed back stopped if no resume followed. A
        replayed stop with no count (the report died with its node)
        takes effect after every message replayed ahead of it."""
        pcb = self.processes.get(pid)
        if pcb is None:
            return False
        if pcb.state is ProcessState.RUNNING:
            pcb.state = ProcessState.STOPPED
            if stop is not None and self.publishing and pcb.recoverable:
                self.send_control_to_recorder(
                    StopPoint(pid, stop, pcb.consumed + pcb.busy))
        elif pcb.state is ProcessState.RECOVERING and not pcb.replay_stopped:
            pcb.replay_stopped = True
            if pcb.stop_at is None:
                pcb.stop_at = pcb.consumed + pcb.busy + len(pcb.queue)
        else:
            return False
        return True

    def resume_process(self, pid: ProcessId) -> bool:
        """Resume a stopped process and drain its queue."""
        pcb = self.processes.get(pid)
        if pcb is None:
            return False
        if pcb.state is ProcessState.STOPPED:
            pcb.state = ProcessState.RUNNING
        elif pcb.replay_stopped:     # recovering, or handed back early
            pcb.replay_stopped = False
            pcb.stop_at = pcb.stop_points[0] if pcb.stop_points else None
            pcb.stop_points = pcb.stop_points[1:]
        else:
            return False
        self._pump(pcb)
        return True

    # -- receive path -----------------------------------------------------
    def _admit(self, pcb: Optional[ProcessControlRecord], message: Message,
               pump: bool = True) -> None:
        """The one door from a message to its process ``pcb`` (None only
        for DELIVERTOKERNEL traffic to a pid this node does not hold),
        for live, replayed and held-back messages alike.

        DELIVERTOKERNEL: "it passes the message, not to the process to
        which it is addressed, but to the kernel process residing on its
        node" (§4.4.3), in stream order like all other messages. Any
        other message joins the queue, and the process is pumped unless
        the caller pumps once after a batch.
        """
        if message.deliver_to_kernel:
            if pcb is not None:
                pcb.dtk_processed += 1
            if self.dtk_handler is not None:
                self.dtk_handler(message)
            return
        pcb.queue.append(message)
        if pump:
            self._pump(pcb)

    def _pump(self, pcb: ProcessControlRecord) -> None:
        """Deliver the next acceptable message to the program, if any."""
        if pcb.busy or not pcb.alive():
            return
        if pcb.stop_at is not None and pcb.consumed >= pcb.stop_at:
            if pcb.state is ProcessState.RUNNING:   # handed back: stop now
                pcb.state, pcb.stop_at = ProcessState.STOPPED, None
                pcb.replay_stopped = False
            return
        ready, channels = pcb.program.wants()
        if not ready:
            return
        message, was_head = pcb.queue.take_next(channels)
        if message is None:
            return
        if not was_head and self.publishing and pcb.recoverable:
            # §4.4.2: channels read this message out of arrival order;
            # tell the recorder which message was read and which was at
            # the head of the queue.
            head = pcb.queue.head()
            self.send_control_to_recorder(ReadOrder(
                pcb.pid, message.msg_id,
                head.msg_id if head is not None else None))
        pcb.busy = True
        self.cpu.run(costs.RECV_CPU_MS, self._invoke_handler, pcb, message)

    def _invoke_handler(self, pcb: ProcessControlRecord, message: Message) -> None:
        # A stop that lands while the handler waits for the CPU lets it
        # finish: the message has left the queue, and ``_pump`` holds
        # the next one until the resume.
        if not (pcb.alive() or pcb.state is ProcessState.STOPPED):
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

    # -- recovery (§4.7) --------------------------------------------------
    def recreate_process(self, pid: ProcessId, image: str, args: Tuple,
                         initial_links: Tuple[Link, ...],
                         checkpoint: Optional[Dict[str, Any]],
                         suppress_send_through: int,
                         recoverable: bool, state_pages: int,
                         recovery_epoch: int,
                         stop_points: Tuple[int, ...] = ()) -> None:
        """§4.7's recreate request: (re)build the process in the
        recovering state. If it already exists, it is destroyed first.
        ``stop_points`` are the counts at which its logged stops took
        effect (see :meth:`stop_process`)."""
        self.destroy_process(pid, notify_recorder=False)
        pcb = self.processes[pid] = self._new_pcb(
            pid, image, args, initial_links, recoverable, state_pages)
        pcb.state = ProcessState.RECOVERING
        pcb.suppress_send_through = suppress_send_through
        pcb.recovery_epoch = recovery_epoch
        if stop_points:
            pcb.stop_at, pcb.stop_points = stop_points[0], stop_points[1:]
        if checkpoint is not None:
            pcb.restore(checkpoint)
            if hasattr(pcb.program, "attach_kernel"):
                pcb.program.attach_kernel(self)   # restore clears the ref
            self.cpu.charge(costs.CHECKPOINT_CPU_PER_PAGE_MS * state_pages)
        else:
            # Restart from the initial image (binary) and let replay do
            # the rest — the thesis's initial implementation.
            self.cpu.run(costs.CREATE_PROCESS_CPU_MS, self._start_program,
                         pcb, ProcessContext(self, pcb))
        self.events.emit("recovery", pid, event="recreated",
                         from_checkpoint=checkpoint is not None)

    def inject_replay(self, message: Message, recovery_epoch: int) -> None:
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
        self._admit(pcb, message)


class MessageKernel(ProcessHost):
    """The message kernel of one DEMOS/MP node — the node itself."""

    def __init__(self, engine: Engine, node_id: int, medium: Medium,
                 config: KernelConfig, registry: ProgramRegistry,
                 obs: Optional[Observability] = None):
        self.engine = engine
        self.node_id = node_id
        self.config = config
        #: publishing (§4.4.1) is on exactly when there is a recorder
        self.publishing = config.recorder_node is not None
        self.registry = registry
        #: instrumentation spine: shared when the System provides one,
        #: otherwise rides the medium's (so standalone kernels still
        #: land on the same registry as their medium and transport)
        self.obs = obs if obs is not None else medium.obs
        self.events = self.obs.scope(f"kernel.{node_id}")
        self.cpu = NodeCpu(engine, self.obs.registry,
                           f"kernel.{node_id}.cpu")
        self.processes: Dict[ProcessId, ProcessControlRecord] = {}
        self._control_seq = 0
        #: control record class -> handler(record, src_node)
        self.control_handlers: Dict[type, Callable[[tuple, int], None]] = {
            AreYouAlive: self._on_are_you_alive,
            StateQuery: self._on_state_query,
            Recreate: self._on_recreate,
            Replay: self._on_replay,
            RecoveryDone: self._on_recovery_done,
            GossipPull: self._on_gossip_pull,
        }
        #: bounded ring of recently published messages — attached by
        #: the gossip coordinator (publishing.gossip), None otherwise
        self.gossip_buffer = None
        self.up = True
        self.transport = Transport(engine, medium, node_id, self._on_segment,
                                   config.transport, obs=self.obs)
        self.messages_sent = self.obs.registry.counter(
            f"kernel.{node_id}.messages_sent")
        self.messages_delivered = self.obs.registry.counter(
            f"kernel.{node_id}.messages_delivered")
        self.obs.registry.gauge_fn(
            f"kernel.{node_id}.processes", lambda: len(self.processes))

    def boot(self, boot_specs: Tuple = (), nls_pid: Optional[Tuple] = None) -> None:
        """Start the kernel process, which starts the system processes."""
        self.create_process(image=KERNEL_PROCESS_IMAGE,
                            args=(boot_specs, nls_pid),
                            pid=kernel_pid(self.node_id),
                            recoverable=True, state_pages=2)

    # ------------------------------------------------------------------
    # process lifetime (primitives used by the kernel process)
    # ------------------------------------------------------------------
    def create_process(self, image: str, pid: ProcessId, args: Tuple = (),
                       initial_links: Tuple[Link, ...] = (),
                       recoverable: bool = True,
                       state_pages: int = 4) -> ProcessId:
        """Start a new process named ``pid``, which the node's kernel
        process allocated (§4.3.1)."""
        if pid in self.processes and self.processes[pid].state is not ProcessState.DEAD:
            raise ProcessError(f"pid {pid} already exists on node {self.node_id}")
        pcb = self._new_pcb(pid, image, args, initial_links, recoverable,
                            state_pages)
        if self.publishing:
            # spawn args with no wire encoding raise here, before the
            # pcb is in the table
            self.send_control_to_recorder(ProcessCreated(
                pid, self.node_id, image, args, tuple(initial_links),
                recoverable, state_pages))
        self.processes[pid] = pcb
        self.events.emit("process", pid, event="created", image=image)
        ctx = ProcessContext(self, pcb)
        self.cpu.run(costs.CREATE_PROCESS_CPU_MS,
                     self._start_program, pcb, ctx)
        return pid

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
        cost = (costs.SEND_CPU_MS + costs.NET_PROTOCOL_SEND_CPU_MS
                if published else costs.SEND_CPU_MS)
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
        # The body enters the network here: one without a wire encoding
        # raises now, and the walk leaves the image every later checksum
        # of the message reads (the frames carrying it encode nothing).
        canonical_bytes(message)
        self.transport.send(message.dst.node, message,
                            size_bytes=message.size_bytes,
                            uid=tuple(message.msg_id))

    def _is_published(self, dst: ProcessId) -> bool:
        """Does a message to ``dst`` have to travel the network for the
        recorder? Not one to a non-recoverable process on this node
        (§6.6.1): it skips the network entirely."""
        if not self.publishing:
            return False
        if dst.node != self.node_id:
            return True
        dst_pcb = self.processes.get(dst)
        if dst_pcb is not None and not dst_pcb.recoverable:
            return False        # §6.6.1: don't pay for the unrecoverable
        return True

    def send_control(self, dst_node: int, control: tuple,
                     guaranteed: bool = True, size_bytes: int = 64) -> None:
        """Send a kernel-level control datagram to another node.

        Program values ride in some controls — the state in a
        ``Checkpoint``, the spawn args in ``ProcessCreated`` — so one
        without a wire encoding raises here, on the caller's stack.
        """
        canonical_bytes(control)
        self._control_seq += 1
        self.transport.send(dst_node, control, size_bytes=size_bytes,
                            uid=("ctl", self.node_id, self._control_seq),
                            guaranteed=guaranteed)

    def send_control_to_recorder(self, control: tuple,
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
            # publishing's protocol tax; the receive call is charged
            # when the message is delivered
            self.cpu.charge(costs.NET_PROTOCOL_RECV_CPU_MS
                            if self.publishing else 0.0)
            self.deliver_local(body)
        else:
            handler = self.control_handlers.get(type(body))
            if handler is not None:
                handler(body, segment.src_node)
            elif not isinstance(body, Control):
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
        if not message.deliver_to_kernel:
            if pcb is None or pcb.state is ProcessState.DEAD:
                self.events.emit("kernel", message.dst,
                                 event="drop_no_process")
                return
            if message.recovery_marker:
                return   # stale marker from a finished recovery; ignore
        self._admit(pcb, message)

    def _live_message_while_recovering(self, pcb: ProcessControlRecord,
                                       message: Message) -> None:
        """§4.7: live traffic for a recovering process is discarded (the
        recorder replays it); after the marker passes, it is held on the
        pcb and appended once replay completes, preserving arrival order."""
        if message.recovery_marker:
            # the body is Recorder.make_marker's ("recovery_marker", epoch)
            if message.body[1] != pcb.recovery_epoch:
                self.events.emit("recovery", pcb.pid, event="stale_marker")
                return
            if pcb.held_live is None:
                pcb.held_live = []
            self.events.emit("recovery", pcb.pid, event="marker_seen")
            return
        if pcb.held_live is not None:
            pcb.held_live.append(message)
        else:
            self.events.emit("recovery", pcb.pid, event="discarded_live",
                             msg=message.msg_id)

    # ------------------------------------------------------------------
    # checkpoints (§3.3.1)
    # ------------------------------------------------------------------
    def checkpoint_process(self, pid: ProcessId) -> bool:
        """Snapshot a process and publish the checkpoint to the recorder.

        Returns False when the program style cannot be snapshotted (the
        recorder then retains the full message history instead).
        """
        pcb = self.processes.get(pid)
        if (pcb is None or pcb.state is not ProcessState.RUNNING
                or pcb.stop_at is not None):   # its stop is still due
            return False
        checkpoint = pcb.snapshot()
        if checkpoint is None:
            return False
        pages = pcb.state_pages
        self.cpu.charge(costs.CHECKPOINT_CPU_PER_PAGE_MS * pages)
        size = pages * costs.CHECKPOINT_PAGE_BYTES
        self.send_control_to_recorder(
            Checkpoint(pid, checkpoint, pcb.consumed, pcb.dtk_processed,
                       pcb.send_seq, pages),
            size_bytes=min(size, costs.CHECKPOINT_PAGE_BYTES))
        pcb.exec_ms_since_checkpoint = 0.0
        pcb.replay_bytes_since_checkpoint = 0
        pcb.msgs_since_checkpoint = 0
        pcb.last_checkpoint_time = self.engine.now
        self.events.emit("checkpoint", pid, pages=pages)
        return True

    # ------------------------------------------------------------------
    # crash injection and recovery support (§4.6, §4.7)
    # ------------------------------------------------------------------
    def crash_process(self, pid: ProcessId) -> None:
        """Halt one process on a detected fault and report the crash —
        a stopped one too: its recovery replays the stop."""
        pcb = self.processes.get(pid)
        if pcb is None or pcb.state in (ProcessState.CRASHED,
                                        ProcessState.DEAD):
            return
        pcb.state = ProcessState.CRASHED
        pcb.queue.clear()
        self.events.emit("crash", pid, scope="process")
        self.send_control_to_recorder(
            ProcessCrashed(pid, self.node_id, "fault"))

    def crash(self) -> None:
        """The whole processor fails: every process and all volatile
        kernel state, the gossip buffer too, is lost (§1.1.2 "rounding
        up"). Each pcb dies with it, so CPU work already queued for one
        returns without running."""
        if self.gossip_buffer is not None:
            self.gossip_buffer.clear()
        self.up = False
        for pcb in self.processes.values():
            pcb.state = ProcessState.DEAD
        self.processes.clear()
        self.transport.crash()
        self.cpu.reset()
        self.events.emit("crash", f"node{self.node_id}", scope="node")

    def restart(self) -> None:
        """The processor reboots with an empty kernel; the recovery
        manager will repopulate it."""
        self.up = True
        self.transport.restart()
        self.events.emit("restart", f"node{self.node_id}")

    def finish_recovery(self, pid: ProcessId, recovery_epoch: int) -> None:
        """Replay complete: append held live traffic and go live — or
        stopped, by a replayed stop, once ``_pump`` reaches it."""
        pcb = self.processes.get(pid)
        if pcb is None or pcb.state is not ProcessState.RECOVERING:
            return
        if recovery_epoch != pcb.recovery_epoch:
            return
        pcb.state = ProcessState.RUNNING
        for message in pcb.held_live or ():
            self._admit(pcb, message, pump=False)
        pcb.held_live = None
        self.events.emit("recovery", pid, event="live")
        self._pump(pcb)

    # ------------------------------------------------------------------
    def process_states(self) -> Dict[ProcessId, str]:
        """pid → state name, for the recorder's restart queries (§3.3.4)."""
        return {pid: pcb.state.value for pid, pcb in self.processes.items()
                if pcb.state is not ProcessState.DEAD}

    # ------------------------------------------------------------------
    # controls below the process level (§3.3.4, §4.6, §4.7)
    # ------------------------------------------------------------------
    def _on_are_you_alive(self, control: AreYouAlive, src_node: int) -> None:
        self.send_control(src_node, AliveReply(self.node_id), guaranteed=False)

    def _on_state_query(self, control: StateQuery, src_node: int) -> None:
        # §3.4: echo the restart number so the recorder can discard
        # replies that belong to an earlier restart attempt.
        self.send_control(src_node, StateReply(
            self.node_id, control.restart_number, self.process_states()))

    def _on_recreate(self, control: Recreate, src_node: int) -> None:
        self.recreate_process(
            pid=control.pid,
            image=control.image,
            args=tuple(control.args),
            initial_links=tuple(control.initial_links),
            checkpoint=control.checkpoint,
            suppress_send_through=control.suppress_send_through,
            recoverable=control.recoverable,
            state_pages=control.state_pages,
            recovery_epoch=control.epoch,
            stop_points=tuple(control.stop_points),
        )

    def _on_replay(self, control: Replay, src_node: int) -> None:
        self.inject_replay(control.message, control.epoch)

    def _on_recovery_done(self, control: RecoveryDone, src_node: int) -> None:
        self.finish_recovery(control.pid, control.epoch)

    def _on_gossip_pull(self, control: GossipPull, src_node: int) -> None:
        """Epidemic pull backup: supply any requested message this
        node's bounded buffer still holds. Supplies are unguaranteed —
        the recorder's next round retries whatever is still missing.
        Requests arrive as per-sender ``[lo, hi)`` sequence ranges
        (``gossip.pull_ranges``)."""
        buffer = self.gossip_buffer
        if buffer is None:
            return
        for sender, lo, hi in control.ranges:
            for seq in range(lo, hi):
                message = buffer.get(MessageId(ProcessId(*sender), seq))
                if message is not None:
                    self.send_control(
                        src_node, GossipSupply(message), guaranteed=False,
                        size_bytes=message.size_bytes + costs.HEADER_BYTES)
