"""Process model: program styles, the process context, and registry.

The recovery model requires processes to be "deterministic upon their
input interactions" (§1.1.1): a process may interact with the world only
through kernel calls, and given the same sequence of delivered messages
it must make the same sequence of calls. Two program styles satisfy
this:

* :class:`Program` — an actor with explicit state held on ``self``. Its
  state is snapshottable, so it supports true checkpoints (§3.3.1).
* :class:`GeneratorProgram` — a coroutine (``run`` generator) that pulls
  messages with ``yield Recv(...)``. Python generators cannot be
  snapshotted, so these are recovered by replay from their initial image
  — exactly the subset the thesis's initial implementation supported
  ("recovery of processes from their initial state and the published
  messages", Chapter 4 intro).

Programs never see the recovery machinery: a recovering process runs the
same code against replayed inputs — transparency (§3.2.2).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.demos.ids import ProcessId
from repro.demos.links import LinkTable
from repro.demos.messages import DeliveredMessage, Message
from repro.demos.queue import MessageQueue
from repro.errors import ProcessError


class ProcessState(Enum):
    """Run states of a process control record."""

    RUNNING = "running"
    STOPPED = "stopped"        # stopped by process control
    CRASHED = "crashed"        # halted on a detected fault (§1.1.2)
    RECOVERING = "recovering"  # being replayed by a recovery process
    DEAD = "dead"              # destroyed


@dataclass(frozen=True)
class Recv:
    """What a generator program yields to receive its next message.

    ``channels`` is an iterable of acceptable channel numbers, or None
    for "any channel" (§4.2.2.2).
    """

    channels: Optional[Tuple[int, ...]] = None

    @staticmethod
    def on(*channels: int) -> "Recv":
        """Receive restricted to the given channels."""
        return Recv(channels=tuple(channels))


class ProgramBase:
    """The kernel's view of a program. Subclasses implement a style."""

    #: CPU milliseconds charged to the node per delivered message.
    handler_cpu_ms: float = 1.0

    def start(self, ctx: "ProcessContext") -> None:
        """Begin execution (process creation or recovery restart)."""
        raise NotImplementedError

    def deliver(self, ctx: "ProcessContext", message: DeliveredMessage) -> None:
        """Consume one message the kernel selected for this process."""
        raise NotImplementedError

    def wants(self) -> Tuple[bool, Optional[Tuple[int, ...]]]:
        """(is the program ready to receive, acceptable channels or None=any)."""
        raise NotImplementedError

    def snapshot(self) -> Optional[Any]:
        """Serializable program state, or None if not checkpointable."""
        return None

    def restore(self, state: Any) -> None:
        """Reinstate state captured by :meth:`snapshot`."""
        raise NotImplementedError(f"{type(self).__name__} is not checkpointable")


class Program(ProgramBase):
    """Actor-style program: explicit state on ``self``, push delivery.

    Subclasses override :meth:`setup` and :meth:`on_message`; the
    attributes they set on ``self`` become the checkpointed state, which
    is deep-copied and shipped to the recorder, so it must be built from
    the wire-encodable types (see :class:`~repro.demos.messages.Message`).
    Channel selectivity is controlled with
    ``ctx.set_channels(...)``.
    """

    def __init__(self) -> None:
        self._channels: Optional[Tuple[int, ...]] = None

    # -- overridables ---------------------------------------------------
    def setup(self, ctx: "ProcessContext") -> None:
        """Called once at process start (not on recovery from checkpoint)."""

    def on_message(self, ctx: "ProcessContext", message: DeliveredMessage) -> None:
        """Called for each delivered message."""

    # -- kernel interface -----------------------------------------------
    def start(self, ctx: "ProcessContext") -> None:
        self.setup(ctx)

    def deliver(self, ctx: "ProcessContext", message: DeliveredMessage) -> None:
        self.on_message(ctx, message)

    def wants(self) -> Tuple[bool, Optional[Tuple[int, ...]]]:
        return True, self._channels

    def snapshot(self) -> Any:
        return copy.deepcopy(
            {k: v for k, v in self.__dict__.items() if not k.startswith("_ctx")})

    def restore(self, state: Any) -> None:
        self.__dict__.clear()
        self.__dict__.update(copy.deepcopy(state))


class GeneratorProgram(ProgramBase):
    """Coroutine-style program: ``run(ctx)`` is a generator pulling
    messages with ``yield Recv(...)``.

    Not checkpointable (``snapshot`` returns None); recovery restarts the
    generator from scratch and replays every published message.
    """

    def __init__(self, run: Optional[Callable] = None):
        self._run_fn = run
        self._gen = None
        self._waiting: Optional[Recv] = None
        self._done = False

    def run(self, ctx: "ProcessContext"):
        """Override in subclasses (or pass a function to __init__)."""
        if self._run_fn is None:
            raise NotImplementedError("override run() or pass a generator fn")
        return self._run_fn(ctx)

    def start(self, ctx: "ProcessContext") -> None:
        self._gen = self.run(ctx)
        self._advance(ctx, None)

    def deliver(self, ctx: "ProcessContext", message: DeliveredMessage) -> None:
        if self._waiting is None:
            raise ProcessError("generator program was not waiting for a message")
        self._waiting = None
        self._advance(ctx, message)

    def _advance(self, ctx: "ProcessContext", value: Any) -> None:
        try:
            yielded = self._gen.send(value)
        except StopIteration:
            self._done = True
            ctx.exit()
            return
        if not isinstance(yielded, Recv):
            raise ProcessError(
                f"generator program yielded {yielded!r}; expected Recv")
        self._waiting = yielded

    def wants(self) -> Tuple[bool, Optional[Tuple[int, ...]]]:
        if self._done or self._waiting is None:
            return False, None
        return True, self._waiting.channels

    def snapshot(self) -> Optional[Any]:
        return None


class ProgramRegistry:
    """Maps binary-image names to program factories (§3.3.1).

    "The first checkpoint for a process is the binary image from which
    the process is created" — the recorder stores the image name and
    creation arguments, and recovery re-instantiates the program from
    this registry.
    """

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[..., ProgramBase]] = {}

    def register(self, name: str, factory: Optional[Callable[..., ProgramBase]] = None):
        """Register a factory; usable directly or as a decorator."""
        if factory is not None:
            self._factories[name] = factory
            return factory

        def decorator(f: Callable[..., ProgramBase]):
            self._factories[name] = f
            return f
        return decorator

    def instantiate(self, name: str, args: Tuple = ()) -> ProgramBase:
        """Build a fresh program instance for image ``name``."""
        try:
            factory = self._factories[name]
        except KeyError:
            raise ProcessError(f"no program image registered as {name!r}") from None
        return factory(*args)

    def known(self, name: str) -> bool:
        return name in self._factories


@dataclass
class ProcessControlRecord:
    """The kernel-resident state of one process (§4.4.3's inventory).

    Together with the program snapshot and the queue contents this is
    the "complete state of a process" that checkpoints capture.
    """

    pid: ProcessId
    image: str
    args: Tuple
    program: ProgramBase
    state: ProcessState = ProcessState.RUNNING
    links: LinkTable = field(default_factory=LinkTable)
    queue: MessageQueue = field(default_factory=MessageQueue)
    send_seq: int = 0                 # last message sequence sent
    consumed: int = 0                 # queue messages consumed since creation
    dtk_processed: int = 0            # control messages executed for us
    recoverable: bool = True          # §6.6.1: publish and recover this one?
    state_pages: int = 4              # nominal checkpoint size, in pages
    # -- recovery bookkeeping -------------------------------------------
    suppress_send_through: int = 0    # drop regenerated sends up to this seq
    recovery_epoch: int = 0           # which recovery incarnation this is:
    # stale replay traffic from a superseded recovery process (§3.5)
    # carries an older epoch and is discarded.
    held_live: Optional[List[Message]] = None   # §4.7 hand-back: None until
    # this epoch's marker passes (live traffic is discarded), then the
    # live traffic held for appending at recovery_done.
    # -- accounting for the §3.2.3 recovery-time model --------------------
    exec_ms_since_checkpoint: float = 0.0
    replay_bytes_since_checkpoint: int = 0
    msgs_since_checkpoint: int = 0
    last_checkpoint_time: float = 0.0
    # -- handler scheduling ------------------------------------------------
    busy: bool = False                # a handler is executing on the CPU

    def alive(self) -> bool:
        return self.state in (ProcessState.RUNNING, ProcessState.RECOVERING)

    def snapshot(self) -> Optional[Dict[str, Any]]:
        """The checkpoint (§3.3.1): program state plus the kernel state a
        replay continues from; None if the program cannot be snapshotted."""
        program_state = self.program.snapshot()
        if program_state is None:
            return None
        return {
            "program_state": program_state,
            "links": self.links.snapshot(),
            "send_seq": self.send_seq,
            "consumed": self.consumed,
            "dtk_processed": self.dtk_processed,
            "channels": getattr(self.program, "_channels", None),
        }

    def restore(self, checkpoint: Dict[str, Any]) -> None:
        """Reinstate what :meth:`snapshot` captured."""
        self.program.restore(checkpoint["program_state"])
        self.links.restore(checkpoint["links"])
        self.send_seq = checkpoint["send_seq"]
        self.consumed = checkpoint["consumed"]
        self.dtk_processed = checkpoint["dtk_processed"]
        if checkpoint["channels"] is not None:
            self.program._channels = checkpoint["channels"]
