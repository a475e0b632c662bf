"""The replay debugger (§6.5).

"A programmer would like some way of backing up a process, or
processes, to the point where the problem originally occurred.
Published communications offers this as a side effect. ... the process
could not only be restarted at a previous checkpoint but also placed in
a debug mode so that the programmer could step through its previous
execution and watch what happens."

:class:`ReplayDebugger` re-executes a process *offline* from the
recorder's database: it instantiates the program from its registered
image (or restores a checkpoint), then feeds it its published messages
one at a time through a :class:`DebugContext` that captures every send.
Because programs are deterministic upon their inputs, the replayed
execution is the real one — breakpoints, single-stepping, and state
inspection all work on history.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.demos.ids import ProcessId
from repro.demos.messages import DeliveredMessage, Message
from repro.demos.process import ProgramBase, ProgramRegistry
from repro.demos.queue import MessageQueue
from repro.errors import ReproError
from repro.publishing.database import ProcessRecord


class DebugContext:
    """A stand-in for the kernel context: records effects, grants links.

    Link ids are handed out sequentially exactly as the kernel would, so
    a replayed program observes identical ids.
    """

    def __init__(self, pid: ProcessId):
        self.pid = pid
        self.node = pid.node
        self._next_link = 1
        self.links: Dict[int, Tuple] = {}
        self.sent: List[Tuple[int, Any]] = []     # (link_id, body)
        self.exited = False
        self.log_lines: List[str] = []

    def create_link(self, channel: int = 0, code: int = 0) -> int:
        link_id = self._next_link
        self._next_link += 1
        self.links[link_id] = ("self", channel, code)
        return link_id

    def destroy_link(self, link_id: int) -> bool:
        return self.links.pop(link_id, None) is not None

    def link_target(self, link_id: int):
        return self.pid if link_id in self.links else None

    def send(self, link_id: int, body: Any, pass_link_id: Optional[int] = None,
             size_bytes: int = 128, keep_link: bool = False) -> bool:
        self.sent.append((link_id, body))
        if pass_link_id is not None and not keep_link:
            self.links.pop(pass_link_id, None)
        return True

    def set_channels(self, *channels: int) -> None:
        pass   # the debugger honours the program's wants() directly

    def exit(self) -> None:
        self.exited = True

    def log(self, text: str, **detail: Any) -> None:
        self.log_lines.append(text)

    def _grant_incoming_link(self) -> int:
        link_id = self._next_link
        self._next_link += 1
        self.links[link_id] = ("incoming",)
        return link_id


@dataclass
class ReplayStep:
    """One delivered message during replay, with the effects it caused."""

    step: int
    message: Message
    sends: List[Tuple[int, Any]]
    state_after: Optional[Any]


class ReplayDebugger:
    """Steps a process through its published history."""

    def __init__(self, record: ProcessRecord, registry: ProgramRegistry,
                 from_checkpoint: bool = False):
        if record.image == "":
            raise ReproError(f"no image recorded for {record.pid}; cannot replay")
        self.record = record
        self.registry = registry
        self.pid = record.pid
        self.program: ProgramBase = registry.instantiate(record.image, record.args)
        self.ctx = DebugContext(record.pid)
        self.queue = MessageQueue()
        self.steps: List[ReplayStep] = []
        self._pending: List[Message] = []
        if from_checkpoint:
            if record.checkpoint is None:
                raise ReproError(f"{record.pid} has no checkpoint")
            self.program.restore(record.checkpoint.data["program_state"])
            stream = record.messages_to_replay()
        else:
            # Full history: every recorded message, valid or invalidated.
            self.program.start(self.ctx)
            stream = [lm for lm in self.record.arrivals if not lm.is_marker]
        self._pending = [lm.message for lm in stream
                         if not lm.is_marker and not lm.is_control]

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.ctx.exited or (not self._pending and not self.queue)

    def step(self) -> Optional[ReplayStep]:
        """Deliver the next message the process would have consumed.

        Returns the :class:`ReplayStep`, or None when the history is
        exhausted or the program stopped receiving.
        """
        if self.ctx.exited:
            return None
        ready, channels = self.program.wants()
        if not ready:
            return None
        # Refill the simulated queue until something matches, exactly as
        # arrivals would have.
        while self.queue.peek_matching(channels) is None:
            if not self._pending:
                return None
            self.queue.append(self._pending.pop(0))
        message, _was_head = self.queue.take_next(channels)
        assert message is not None
        sends_before = len(self.ctx.sent)
        passed_link_id = None
        if message.passed_link is not None:
            passed_link_id = self.ctx._grant_incoming_link()
        delivered = DeliveredMessage(code=message.code, channel=message.channel,
                                     body=message.body, src=message.src,
                                     passed_link_id=passed_link_id)
        self.program.deliver(self.ctx, delivered)
        step = ReplayStep(
            step=len(self.steps),
            message=message,
            sends=self.ctx.sent[sends_before:],
            state_after=self.program.snapshot(),
        )
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

    def state(self) -> Optional[Any]:
        """The program's current (snapshot-able) state."""
        return self.program.snapshot()
