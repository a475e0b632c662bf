"""Messages and kernel-level control payloads.

"Messages consist of three parts: a header, a passed link, and a body.
The header contains the code and channel of the message in addition to
information needed to route the message to the correct process. These
fields are obtained from the link over which the message is sent"
(§4.2.2.3).

A control datagram is not a DEMOS message: it is kernel↔kernel /
kernel↔recorder protocol, one record class per kind (docs/PROTOCOLS.md,
"Control datagrams", has the table):

* :class:`AreYouAlive` / :class:`AliveReply` — watchdog protocol (§4.6);
* :class:`ProcessCreated` / :class:`ProcessDestroyed` — recorder
  notices (§4.5);
* :class:`ProcessCrashed` — trap report to the recovery manager (§3.3.2);
* :class:`Checkpoint` — a process checkpoint bound for the recorder;
* :class:`ReadOrder` — out-of-order channel-read advisory (§4.4.2);
* :class:`Recreate` — recovery restart request (§4.7);
* :class:`Replay` — one published message re-sent to a recovering
  process;
* :class:`RecoveryDone` — recovery process signing off;
* :class:`StateQuery` / :class:`StateReply` — recorder restart protocol
  (§3.3.4), stamped with the restart number so stale replies are
  ignored (§3.4);
* :class:`RecoverOffer` / :class:`RecoverAnswer` — multi-recorder
  coordination (§6.3);
* :class:`GossipPull` / :class:`GossipSupply` — epidemic repair
  (docs/GOSSIP.md).

Controls ride the same transport but are handled below the process
level and are not published. :data:`Control` is the tuple of the record
classes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro import costs
from repro.demos.ids import MessageId, ProcessId
from repro.demos.links import Link
from repro.errors import ConfigError
from repro.net.frames import WireImage, register_payload

# Messages are the highest-volume allocation in a busy simulation, so
# the classes below are slotted where the runtime supports it (slotted
# frozen dataclasses need Python >= 3.10; 3.9 just loses the memory
# saving, nothing else).
if sys.version_info >= (3, 10):
    _frozen = partial(dataclass, frozen=True, slots=True)
else:                                           # pragma: no cover
    _frozen = partial(dataclass, frozen=True)

#: Default and maximum body sizes: the queuing model's short and long
#: message classes (§5.1).
DEFAULT_BODY_BYTES = costs.SHORT_MSG_BYTES
MAX_BODY_BYTES = costs.LONG_MSG_BYTES


@register_payload("msg")
@_frozen()
class Message(WireImage):
    """One DEMOS message in flight or in a queue.

    ``body`` is whatever the program sent, and it crosses the wire: it
    must be built from ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes``, ``tuple``, ``list``, ``dict``, ``set``/``frozenset`` and
    registered payload classes (:class:`ProcessId`, :class:`Link`, ...),
    nested freely. Anything else raises
    :class:`~repro.errors.EncodingError` where the sender's kernel puts
    the message on the network. To send a record type of your own, make
    it a dataclass or a ``NamedTuple`` and decorate it with
    ``@repro.net.frames.register_payload("tag")`` in the module that
    defines it.

    A message is encoded where it enters the network and checksummed at
    the recorder's append, the verified replay read, and every frame
    that carries it and is checked by recomputation. A body built from
    scalars, tuples, frozensets and frozen registered classes cannot
    change, so it is walked once and the message carries its encoding
    from then on
    (:class:`~repro.net.frames.WireImage`). A body holding a ``list``,
    a ``dict`` or a ``set`` at any depth is just as legal and is walked
    again at every checksum — which is how a container changed after
    the message was logged fails the record's digest.
    """

    msg_id: MessageId            # (sender pid, sender's send sequence)
    src: ProcessId
    dst: ProcessId
    channel: int
    code: int
    body: Any
    passed_link: Optional[Link] = None
    size_bytes: int = DEFAULT_BODY_BYTES
    deliver_to_kernel: bool = False
    #: Set on the marker the recovery process uses to hand a recovering
    #: process back to live traffic (see publishing.recovery_manager).
    recovery_marker: bool = False

    def __post_init__(self) -> None:
        self.check_size(self.size_bytes)

    @staticmethod
    def check_size(size_bytes: int) -> None:
        """Refuse a body size no message, built or not, may have."""
        if not 0 < size_bytes <= MAX_BODY_BYTES:
            raise ConfigError(
                f"message body must be 1..{MAX_BODY_BYTES} bytes, "
                f"got {size_bytes}")


class DeliveredMessage(NamedTuple):
    """What a program's ``on_message`` handler sees.

    The kernel has already moved any passed link into the receiver's
    link table; ``passed_link_id`` is its id there ("the receiver is
    told the link id of the link"). One is built per delivery and read
    by name, so it is a ``NamedTuple``; it is not a registered payload
    class and never crosses the wire.
    """

    code: int
    channel: int
    body: Any
    src: ProcessId
    passed_link_id: Optional[int] = None


# ----------------------------------------------------------------------
# control datagrams
# ----------------------------------------------------------------------
# One record class per kind, registered under its kind name. A record is
# built per send and read once by its handler, so a ``NamedTuple``:
# built in C, read by name, walked as a tuple. Field values are wire
# payload like :attr:`Message.body` and take the same types; a ``pid``
# field holds the :class:`ProcessId` itself.

@register_payload("are_you_alive")
class AreYouAlive(NamedTuple):
    """Watchdog -> node: the §4.6 "are you alive" request."""


@register_payload("alive_reply")
class AliveReply(NamedTuple):
    """Node -> watchdog: the answer to :class:`AreYouAlive`."""

    node: int


@register_payload("process_created")
class ProcessCreated(NamedTuple):
    """Kernel -> recorder: a process was created (§4.5)."""

    pid: ProcessId
    node: int
    image: str
    args: Tuple
    initial_links: Tuple[Link, ...] = ()
    recoverable: bool = True
    state_pages: int = 4


@register_payload("process_destroyed")
class ProcessDestroyed(NamedTuple):
    """Kernel -> recorder: a process was destroyed (§4.5)."""

    pid: ProcessId
    node: int


@register_payload("process_crashed")
class ProcessCrashed(NamedTuple):
    """Kernel -> recovery manager: a trapped process fault (§3.3.2)."""

    pid: ProcessId
    node: int
    error: str


@register_payload("read_order")
class ReadOrder(NamedTuple):
    """Kernel -> recorder: ``read`` was read while ``head`` was at the
    head of the queue, out of arrival order (§4.4.2)."""

    pid: ProcessId
    read: MessageId
    head: Optional[MessageId]


@register_payload("checkpoint")
class Checkpoint(NamedTuple):
    """Kernel -> recorder: a process checkpoint (§3.3.1)."""

    pid: ProcessId
    data: Dict[str, Any]
    consumed: int
    dtk_processed: int
    send_seq: int
    pages: int


@register_payload("recreate")
class Recreate(NamedTuple):
    """Recovery process -> node: rebuild ``pid`` in the recovering
    state from its checkpoint (§4.7)."""

    pid: ProcessId
    image: str
    args: Tuple
    initial_links: Tuple[Link, ...]
    checkpoint: Optional[Dict[str, Any]]
    suppress_send_through: int
    recoverable: bool
    state_pages: int
    epoch: int


@register_payload("replay")
class Replay(NamedTuple):
    """Recovery process -> node: one published message re-sent to the
    recovering process ``message.dst`` (§4.7)."""

    message: Message
    epoch: int


@register_payload("recovery_done")
class RecoveryDone(NamedTuple):
    """Recovery process -> node: the recovery signs off (§4.7)."""

    pid: ProcessId
    epoch: int


@register_payload("state_query")
class StateQuery(NamedTuple):
    """Restarted recorder -> node: report your processes (§3.3.4),
    stamped with the restart number (§3.4)."""

    restart_number: int


@register_payload("state_reply")
class StateReply(NamedTuple):
    """Node -> recorder: pid -> state name, echoing the restart number
    so stale replies are ignored (§3.4)."""

    node: int
    restart_number: int
    states: Dict[ProcessId, str]


@register_payload("recover_offer")
class RecoverOffer(NamedTuple):
    """Recorder -> higher-priority recorder: will you recover ``node``?
    (§6.3)."""

    node: int
    offerer: int


@register_payload("recover_answer")
class RecoverAnswer(NamedTuple):
    """Recorder -> offerer: the answer to :class:`RecoverOffer` (§6.3)."""

    node: int
    recorder: int
    accept: bool


@register_payload("gossip_pull")
class GossipPull(NamedTuple):
    """Recorder -> node: supply these per-sender ``(sender, lo, hi)``
    sequence ranges from your gossip buffer (docs/GOSSIP.md)."""

    ranges: List[tuple]


@register_payload("gossip_supply")
class GossipSupply(NamedTuple):
    """Node -> recorder: one message a :class:`GossipPull` asked for."""

    message: Message


#: Every control record class: ``isinstance(x, Control)`` asks whether
#: ``x`` is a control datagram. Handlers are keyed by the class.
Control = (AreYouAlive, AliveReply, ProcessCreated, ProcessDestroyed,
           ProcessCrashed, ReadOrder, Checkpoint, Recreate, Replay,
           RecoveryDone, StateQuery, StateReply, RecoverOffer,
           RecoverAnswer, GossipPull, GossipSupply)
