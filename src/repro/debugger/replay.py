"""The replay debugger (§6.5).

"A programmer would like some way of backing up a process, or
processes, to the point where the problem originally occurred.
Published communications offers this as a side effect. ... the process
could not only be restarted at a previous checkpoint but also placed in
a debug mode so that the programmer could step through its previous
execution and watch what happens."

:class:`ReplayDebugger` re-executes a process *offline* from the
recorder's database, the way recovery rebuilds it (§4.7): it is the
kernel of that one process. It recreates the process from its record's
image, arguments and initial links, restores the checkpoint or starts
the image, and feeds it the records recovery would replay, one delivery
per :meth:`~ReplayDebugger.step`, through the message kernel's own
calls and receive path (:class:`~repro.demos.kernel.ProcessHost`).
Each send is kept as the :class:`~repro.demos.messages.Message` the
live kernel built for it. Because programs are deterministic upon their
inputs, the replayed execution is the real one — breakpoints,
single-stepping, and state inspection all work on history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.demos.ids import MessageId, ProcessId
from repro.demos.kernel import NodeCpu, ProcessHost
from repro.demos.kernel_process import KernelProcessProgram
from repro.demos.links import Link
from repro.demos.messages import Message
from repro.demos.process import ProcessControlRecord, ProgramRegistry
from repro.errors import ReproError
from repro.obs import Observability
from repro.publishing.database import ProcessRecord
from repro.sim.engine import Engine


@dataclass
class ReplayStep:
    """One delivered message during replay, with the effects it caused."""

    step: int
    message: Message
    sends: List[Message]
    state_after: Optional[Any]


class ReplayDebugger(ProcessHost):
    """Steps a process through its published history.

    ``pcb`` is the rebuilt process and ``program`` its program; ``sent``
    holds every send since the rebuild. Programs that bind their kernel
    (``attach_kernel``) get this debugger, whose ``processes`` and
    ``forge_link`` are the kernel's. A record that fails its checksum
    raises :class:`~repro.errors.RecordCorruptionError`.
    """

    def __init__(self, record: ProcessRecord, registry: ProgramRegistry):
        if record.image == "":
            raise ReproError(f"no image recorded for {record.pid}; cannot replay")
        self.record = record
        self.pid = record.pid
        self.registry = registry
        self.node_id = record.node
        self.publishing = False
        self.engine = Engine()
        self.obs = Observability(lambda: self.engine.now)
        self.events = self.obs.scope("replay")
        self.cpu = NodeCpu(self.engine, self.obs.registry, "replay.cpu")
        self.messages_delivered = self.obs.registry.counter(
            "replay.messages_delivered")
        self.processes: Dict[ProcessId, ProcessControlRecord] = {}
        self.sent: List[Message] = []
        self.steps: List[ReplayStep] = []
        self._cursor = record.replay_cursor(verify=True)
        self._caught_up = False
        self._delivered: Optional[Message] = None
        # DELIVERTOKERNEL records run as the node's kernel process runs
        # them, in the identity of the process they address (§4.4.3)
        KernelProcessProgram().attach_kernel(self)
        checkpoint = record.checkpoint
        self.recreate_process(
            record.pid, record.image, tuple(record.args),
            tuple(record.initial_links),
            checkpoint.data if checkpoint is not None else None,
            suppress_send_through=0, recoverable=record.recoverable,
            state_pages=record.state_pages, recovery_epoch=0)
        self.engine.run()           # the image's start, when there was one
        self.pcb = self.processes[record.pid]
        self.program = self.pcb.program

    def _send_from(self, pcb: ProcessControlRecord, dst: ProcessId,
                   channel: int, code: int, body: Any,
                   passed_link: Optional[Link], size_bytes: int,
                   deliver_to_kernel: bool) -> None:
        pcb.send_seq += 1
        self.sent.append(Message(
            msg_id=MessageId(pcb.pid, pcb.send_seq), src=pcb.pid, dst=dst,
            channel=channel, code=code, body=body, passed_link=passed_link,
            size_bytes=size_bytes, deliver_to_kernel=deliver_to_kernel))

    def _invoke_handler(self, pcb: ProcessControlRecord,
                        message: Message) -> None:
        self._delivered = message
        super()._invoke_handler(pcb, message)

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return not self.pcb.alive() or (self._caught_up and not self.pcb.queue)

    def step(self) -> Optional[ReplayStep]:
        """Deliver the next message the process would have consumed.

        Records are fed in the order recovery replays them — invalid
        (checkpoint-covered) records and markers skipped, a
        DELIVERTOKERNEL record run by the kernel process, not delivered —
        until the process takes one. Returns the :class:`ReplayStep`,
        or None when the history is exhausted or the process exited.
        """
        pcb = self.pcb
        consumed, sends_before = pcb.consumed, len(self.sent)
        while pcb.consumed == consumed:
            if not pcb.alive():
                return None
            if self.engine.step():
                continue
            logged = self._cursor.next()
            self._caught_up = logged is None
            if logged is None:
                return None
            if not (logged.invalid or logged.is_marker):
                self.inject_replay(logged.message, 0)
        step = ReplayStep(step=len(self.steps), message=self._delivered,
                          sends=self.sent[sends_before:],
                          state_after=self.program.snapshot())
        self.steps.append(step)
        return step

    def run_to(self, step_index: int) -> Optional[ReplayStep]:
        """Step until ``step_index`` is reached (a breakpoint by count)."""
        last = None
        while len(self.steps) <= step_index:
            result = self.step()
            if result is None:
                break
            last = result
        return last

    def run_until(self, predicate: Callable[["ReplayDebugger"], bool],
                  max_steps: int = 100_000) -> Optional[ReplayStep]:
        """Step until ``predicate(self)`` holds (a conditional breakpoint)."""
        last = None
        for _ in range(max_steps):
            if predicate(self):
                return last
            result = self.step()
            if result is None:
                return last if predicate(self) else None
            last = result
        raise ReproError("breakpoint never hit within max_steps")

    def run_all(self, max_steps: int = 100_000) -> List[ReplayStep]:
        """Replay the entire history."""
        for _ in range(max_steps):
            if self.step() is None:
                return self.steps
        raise ReproError("history longer than max_steps")
