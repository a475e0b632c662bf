"""System processes: named-link server, process manager, memory scheduler.

"System processes are user level processes that are an integral part of
the operating system. While the kernel provides primitive functionality,
the system processes provide structure and policy" (§4.2.1).

The process-control chain is the three-process pipeline of §4.2.3: user
requests go to the **process manager** (jobs and limits), which forwards
to the **memory scheduler** (node placement — it "maintains a link to
the kernel process of each node"), which forwards to the target node's
kernel process. Replies carry the new process's DELIVERTOKERNEL control
link back up the chain.

The **named-link server** solves the rendezvous problem (§4.2.2.1):
every process is created holding a link to it (initial link id 1), and
can register links under names or look names up; lookups for names not
yet registered are parked and answered on registration.

All three are checkpointable actor programs — their state is ints,
strings, and tuples; held links live in their kernel link tables, which
checkpoints capture separately.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.demos.messages import DeliveredMessage
from repro.demos.process import Program

#: Registry names for the three system process images.
NLS_IMAGE = "demos/named_link_server"
PM_IMAGE = "demos/process_manager"
MS_IMAGE = "demos/memory_scheduler"

#: Well-known registered names.
PM_NAME = "process_manager"

#: Channel conventions: requests arrive on channel 0; internal replies
#: travel on channel 1 links whose code is the request id.
REQUEST_CHANNEL = 0
REPLY_CHANNEL = 1


class NamedLinkServer(Program):
    """The rendezvous service (§4.2.2.1).

    Protocol (bodies are tuples):

    * ``('register', name)`` + passed link — file the link under ``name``;
    * ``('lookup', name)`` + passed reply link — answer
      ``('link', name)`` + a duplicate of the registered link, parking
      the request if the name is not registered yet.
    """

    handler_cpu_ms = 0.5

    def __init__(self) -> None:
        super().__init__()
        self.names: Dict[str, int] = {}              # name -> held link id
        self.pending: Dict[str, List[int]] = {}      # name -> reply link ids

    def on_message(self, ctx, message: DeliveredMessage) -> None:
        body = message.body
        if not isinstance(body, tuple) or not body:
            return
        if body[0] == "register" and message.passed_link_id is not None:
            name = body[1]
            self.names[name] = message.passed_link_id
            for reply_id in self.pending.pop(name, []):
                self._answer(ctx, name, reply_id)
        elif body[0] == "lookup" and message.passed_link_id is not None:
            name = body[1]
            if name in self.names:
                self._answer(ctx, name, message.passed_link_id)
            else:
                self.pending.setdefault(name, []).append(message.passed_link_id)

    def _answer(self, ctx, name: str, reply_link_id: int) -> None:
        ctx.send(reply_link_id, ("link", name),
                 pass_link_id=self.names[name], keep_link=True)
        ctx.destroy_link(reply_link_id)


class ProcessManager(Program):
    """Job accounting and the user-facing end of process control (§4.2.3).

    "The process manager maintains all information about process groups,
    called jobs. ... A job has associated with it certain limits to
    control the amount of resources used by a user." Here a job is keyed
    by the requesting pid and limited to ``job_limit`` live processes.

    Protocol: ``('create', image, args, node_hint, recoverable, pages)``
    + passed reply link → eventually ``('created', pid)`` + passed
    control link, or ``('create_failed', reason)``.
    ``('job_done', pid_tuple)`` decrements the requester's job count.
    """

    handler_cpu_ms = 0.5

    def __init__(self, job_limit: int = 64):
        super().__init__()
        self.job_limit = job_limit
        self.jobs: Dict[Tuple, int] = {}             # requester pid -> count
        self.pending: Dict[int, Tuple[int, Tuple]] = {}  # req -> (reply link, requester)
        self.next_req = 1
        self.ms_link_id: Optional[int] = None        # initial link, set in setup

    def setup(self, ctx) -> None:
        # Initial links: 1 = named-link server, 2 = memory scheduler.
        self.ms_link_id = 2
        registration = ctx.create_link(channel=REQUEST_CHANNEL)
        ctx.send(1, ("register", PM_NAME), pass_link_id=registration)

    def on_message(self, ctx, message: DeliveredMessage) -> None:
        if message.channel == REQUEST_CHANNEL:
            self._handle_request(ctx, message)
        elif message.channel == REPLY_CHANNEL:
            self._handle_reply(ctx, message)

    def _handle_request(self, ctx, message: DeliveredMessage) -> None:
        body = message.body
        if not isinstance(body, tuple) or not body:
            return
        if body[0] == "job_done":
            requester = tuple(body[1])
            if requester in self.jobs and self.jobs[requester] > 0:
                self.jobs[requester] -= 1
            return
        if body[0] != "create" or message.passed_link_id is None:
            return
        _, image, args, node_hint, recoverable, pages = body
        requester = tuple(message.src)
        if self.jobs.get(requester, 0) >= self.job_limit:
            ctx.send(message.passed_link_id, ("create_failed", "job limit"))
            ctx.destroy_link(message.passed_link_id)
            return
        self.jobs[requester] = self.jobs.get(requester, 0) + 1
        req = self.next_req
        self.next_req += 1
        self.pending[req] = (message.passed_link_id, requester)
        reply_to_me = ctx.create_link(channel=REPLY_CHANNEL, code=req)
        node = node_hint if node_hint is not None else message.src.node
        ctx.send(self.ms_link_id,
                 ("create", image, args, node, recoverable, pages),
                 pass_link_id=reply_to_me)

    def _handle_reply(self, ctx, message: DeliveredMessage) -> None:
        req = message.code
        entry = self.pending.pop(req, None)
        if entry is None:
            return
        reply_link_id, requester = entry
        body = message.body
        if (isinstance(body, tuple) and body and body[0] == "created"
                and message.passed_link_id is not None):
            ctx.send(reply_link_id, body, pass_link_id=message.passed_link_id)
        else:
            self.jobs[requester] = max(0, self.jobs.get(requester, 1) - 1)
            ctx.send(reply_link_id, ("create_failed", "scheduler error"))
        ctx.destroy_link(reply_link_id)


class MemoryScheduler(Program):
    """Node placement, the middle of the control chain (§4.2.3, §4.3.2).

    ``node_order`` (creation argument) lists the node ids whose kernel
    processes this scheduler holds links to; initial links are
    ``1 = NLS`` then one kernel-process link per node in that order.
    """

    handler_cpu_ms = 0.5

    def __init__(self, node_order: Tuple[int, ...] = ()):
        super().__init__()
        self.node_order = tuple(node_order)
        self.pending: Dict[int, int] = {}   # req -> PM reply link id
        self.next_req = 1

    def _kp_link_id(self, node: int) -> Optional[int]:
        try:
            return 2 + self.node_order.index(node)
        except ValueError:
            return None

    def on_message(self, ctx, message: DeliveredMessage) -> None:
        if message.channel == REQUEST_CHANNEL:
            self._handle_request(ctx, message)
        elif message.channel == REPLY_CHANNEL:
            self._handle_reply(ctx, message)

    def _handle_request(self, ctx, message: DeliveredMessage) -> None:
        body = message.body
        if (not isinstance(body, tuple) or not body or body[0] != "create"
                or message.passed_link_id is None):
            return
        _, image, args, node, recoverable, pages = body
        kp_link = self._kp_link_id(node)
        if kp_link is None and self.node_order:
            # Unknown target: fall back to the first managed node.
            node = self.node_order[0]
            kp_link = self._kp_link_id(node)
        if kp_link is None:
            ctx.send(message.passed_link_id, ("create_failed", "no such node"))
            ctx.destroy_link(message.passed_link_id)
            return
        req = self.next_req
        self.next_req += 1
        self.pending[req] = message.passed_link_id
        reply_to_me = ctx.create_link(channel=REPLY_CHANNEL, code=req)
        ctx.send(kp_link, ("create", image, args, recoverable, pages),
                 pass_link_id=reply_to_me)

    def _handle_reply(self, ctx, message: DeliveredMessage) -> None:
        req = message.code
        reply_link_id = self.pending.pop(req, None)
        if reply_link_id is None:
            return
        body = message.body
        if message.passed_link_id is not None:
            ctx.send(reply_link_id, body, pass_link_id=message.passed_link_id)
        else:
            ctx.send(reply_link_id, body)
        ctx.destroy_link(reply_link_id)
