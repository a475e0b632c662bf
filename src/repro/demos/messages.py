"""Messages and kernel-level control payloads.

"Messages consist of three parts: a header, a passed link, and a body.
The header contains the code and channel of the message in addition to
information needed to route the message to the correct process. These
fields are obtained from the link over which the message is sent"
(§4.2.2.3).

A :class:`Control` is not a DEMOS message: it is kernel↔kernel /
kernel↔recorder protocol (watchdog pings, creation notices, checkpoints,
recreate and replay traffic). Controls ride the same transport but are
handled below the process level and — except where noted — are not
published.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, NamedTuple, Optional

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

#: Default and maximum body sizes, matching the queuing model's short
#: (128-byte) and long (1024-byte) message classes (§5.1).
DEFAULT_BODY_BYTES = 128
MAX_BODY_BYTES = 1024


@register_payload("msg")
@_frozen()
class Message(WireImage):
    """One DEMOS message in flight or in a queue.

    ``body`` is whatever the program sent, and it crosses the wire: it
    must be built from ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes``, ``tuple``, ``list``, ``dict``, ``set``/``frozenset`` and
    registered payload classes (:class:`ProcessId`, :class:`Link`, ...),
    nested freely. Anything else raises
    :class:`~repro.errors.EncodingError` when the sender's frame is
    built. To send a record type of your own, make it a dataclass or a
    ``NamedTuple`` and decorate it with
    ``@repro.net.frames.register_payload("tag")`` in the module that
    defines it.

    A message is checksummed at every hop: each transmission attempt,
    the recorder's append, the verified replay read, the ``replay``
    control. A body built from scalars, tuples, frozensets and frozen
    registered classes cannot change, so it is walked once and the
    message carries its encoding from then on
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


_control_counter = itertools.count(1)


@register_payload("ctl")
@_frozen()
class Control:
    """A kernel-level protocol datagram.

    ``kind`` values used across the system:

    * ``are_you_alive`` / ``alive_reply`` — watchdog protocol (§4.6);
    * ``process_created`` / ``process_destroyed`` — recorder notices (§4.5);
    * ``process_crashed`` — trap report to the recovery manager (§3.3.2);
    * ``checkpoint`` — a process checkpoint bound for the recorder;
    * ``read_order`` — out-of-order channel-read advisory (§4.4.2);
    * ``recreate`` / ``recreate_ok`` — recovery restart request (§4.7);
    * ``replay`` — one published message re-sent to a recovering process;
    * ``recovery_done`` — recovery process signing off;
    * ``state_query`` / ``state_reply`` — recorder restart protocol (§3.3.4),
      stamped with the restart number so stale replies are ignored (§3.4);
    * ``recover_offer`` / ``recover_answer`` — multi-recorder coordination
      (§6.3).

    ``fields`` values are wire payload like :attr:`Message.body` and take
    the same types; the order the keys were inserted in does not reach
    the frame checksum.
    """

    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)
    uid: int = field(default_factory=lambda: next(_control_counter))

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)
