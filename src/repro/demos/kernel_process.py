"""The kernel process (§4.2.1, §4.2.3, §4.4.3).

"The kernel process also resides in the kernel space. ... User level
processes make requests of the kernel process by sending it messages."
It is the only entity that creates and destroys processes, and — after
the §4.4.3 fix — the interpreter of all DELIVERTOKERNEL process-control
traffic, which it executes "while it temporarily assumes the identity of
the controlled process".

The kernel process is itself a DEMOS process (pid ``(node, 0)``) with a
message queue, links, and a checkpointable actor state, so it is
recovered by the same machinery as everything else. Its essential
recovery property: re-executing a replayed create request when the
process already exists (because the recovery manager restored it first)
is a no-op apart from regenerating the reply, which the send-suppression
rule then drops if it was already delivered.

Message protocol (bodies are plain tuples):

* to the kernel process directly —
  ``('create', image, args, recoverable, pages)`` + passed reply link
  → reply ``('created', pid)`` + passed DELIVERTOKERNEL control link;
* over a DELIVERTOKERNEL link to process X —
  ``('destroy',)``, ``('stop',)``, ``('resume',)``,
  ``('movelink', link_id, holder_pid)`` (the Figure 4.5 exchange),
  ``('fetch_link', link_id, for_pid)``, ``('install_link',)`` + passed
  link, and ``('givelink',)`` + passed link (the one-message variant
  usable when the requester itself holds the link).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.demos.ids import ProcessId, kernel_pid
from repro.demos.links import Link
from repro.demos.messages import DeliveredMessage, Message
from repro.demos.process import Program
from repro.errors import LinkError

#: Registry name of the kernel process image.
KERNEL_PROCESS_IMAGE = "demos/kernel_process"


class KernelProcessProgram(Program):
    """The per-node kernel process.

    ``boot_specs`` describes the system processes this node starts when
    the operating system comes up (§4.2.1): a tuple of
    ``(image, args, links_spec, recoverable, pages)`` entries, where
    ``links_spec`` items are interpreted as:

    * ``('nls',)`` — a link to this node's configured named-link server;
    * ``('proc', i)`` — a link to the i-th boot process of this node;
    * ``('kp', node)`` — a link to the kernel process of ``node``;
    * ``('kp_dtk', node)`` — ditto, but DELIVERTOKERNEL.

    ``nls_pid`` names the system-wide named-link server; a link to it is
    inserted as initial link id 1 of every process this kernel process
    creates, solving the rendezvous problem.
    """

    handler_cpu_ms = 0.5

    def __init__(self, boot_specs: Tuple = (), nls_pid: Optional[Tuple] = None):
        super().__init__()
        self.boot_specs = boot_specs
        self.nls_pid = tuple(nls_pid) if nls_pid is not None else None
        self.next_local_id = 1

    # -- kernel residence --------------------------------------------------
    def attach_kernel(self, kernel) -> None:
        """Bind to the node's message kernel (re-run after restore)."""
        self._ctx_kernel = kernel
        kernel.dtk_handler = self.handle_dtk

    # -- startup -----------------------------------------------------------
    def setup(self, ctx) -> None:
        node = ctx.node
        for image, args, links_spec, recoverable, pages in self.boot_specs:
            initial = tuple(self._resolve_link_spec(spec, node)
                            for spec in links_spec)
            pid = self._allocate(node)
            kernel = self._kernel()
            existing = kernel.processes.get(pid)
            if existing is not None and existing.alive():
                # Replayed boot during recovery: the recovery manager has
                # already restored this process — leave it alone.
                continue
            kernel.create_process(
                image=image, args=args, pid=pid,
                initial_links=self._with_nls(initial),
                recoverable=recoverable, state_pages=pages)

    def _kernel(self):
        return self._ctx_kernel

    def _allocate(self, node: int) -> ProcessId:
        pid = ProcessId(node, self.next_local_id)
        self.next_local_id += 1
        return pid

    def _resolve_link_spec(self, spec: Tuple, node: int) -> Link:
        kind = spec[0]
        if kind == "nls":
            if self.nls_pid is None:
                raise LinkError("boot spec references an unconfigured NLS")
            return Link(dst=ProcessId(*self.nls_pid))
        if kind == "proc":
            return Link(dst=ProcessId(node, 1 + spec[1]))
        if kind == "kp":
            return Link(dst=kernel_pid(spec[1]))
        if kind == "kp_dtk":
            return Link(dst=kernel_pid(spec[1]), deliver_to_kernel=True)
        raise LinkError(f"unknown boot link spec {spec!r}")

    def _with_nls(self, links: Tuple[Link, ...]) -> Tuple[Link, ...]:
        """Prepend the named-link server link (initial link id 1)."""
        if self.nls_pid is None:
            return links
        return (Link(dst=ProcessId(*self.nls_pid)),) + tuple(links)

    # -- direct requests -----------------------------------------------------
    def on_message(self, ctx, message: DeliveredMessage) -> None:
        body = message.body
        if not isinstance(body, tuple) or not body:
            return
        if body[0] == "create":
            self._handle_create(ctx, message, body)

    def _handle_create(self, ctx, message: DeliveredMessage, body: tuple) -> None:
        _, image, args, recoverable, pages = body
        kernel = self._kernel()
        pid = self._allocate(ctx.node)
        existing = kernel.processes.get(pid)
        if existing is None or not existing.alive():
            # During kernel-process recovery the process may already be
            # alive (restored by the recovery manager before this request
            # was replayed); creating it again would destroy that work.
            kernel.create_process(image=image, args=tuple(args), pid=pid,
                                  initial_links=self._with_nls(()),
                                  recoverable=recoverable, state_pages=pages)
        if message.passed_link_id is not None:
            control = Link(dst=pid, deliver_to_kernel=True)
            own_pcb = kernel.processes[ctx.pid]
            control_id = kernel.forge_link(own_pcb, control)
            ctx.send(message.passed_link_id, ("created", pid),
                     pass_link_id=control_id)
            ctx.destroy_link(message.passed_link_id)

    # -- DELIVERTOKERNEL control (§4.4.3) -----------------------------------
    def handle_dtk(self, message: Message) -> None:
        """Execute a process-control message addressed to ``message.dst``
        while assuming that process's identity."""
        kernel = self._kernel()
        controlled = kernel.processes.get(message.dst)
        body = message.body
        if not isinstance(body, tuple) or not body:
            return
        op = body[0]
        if op == "destroy":
            kernel.destroy_process(message.dst)
        elif op == "stop":
            kernel.stop_process(message.dst, message.msg_id)
        elif op == "resume":
            kernel.resume_process(message.dst)
        elif op == "movelink" and controlled is not None:
            # Figure 4.5, step 2: running as the controlled process, ask
            # the holder's kernel process for the link.
            _, link_id, holder = body
            kernel.send_as(controlled, ProcessId(*holder),
                           ("fetch_link", link_id, tuple(message.dst)),
                           deliver_to_kernel=True)
        elif op == "fetch_link" and controlled is not None:
            # Figure 4.5, step 3: running as the holder, move the link
            # out of its table and ship it to the requesting process.
            _, link_id, for_pid = body
            if controlled.links.has(link_id):
                link = controlled.links.remove(link_id)
                kernel.send_as(controlled, ProcessId(*for_pid),
                               ("install_link",), passed_link=link,
                               deliver_to_kernel=True)
        elif op in ("install_link", "givelink") and controlled is not None:
            # Figure 4.5, step 4 (or the one-message variant): store the
            # carried link in the controlled process's link table.
            if message.passed_link is not None:
                kernel.forge_link(controlled, message.passed_link)
