"""Network-wide process and message identifiers.

"Associated with each process, in single processor DEMOS, is a unique
identifier. In DEMOS/MP, this identifier is made unique, network wide,
by appending to the single processor ID the unique ID of the processor
on which it was created" (§4.3.1).

"The identifier is made up of two fields: the unique identifier of the
sending process and a number from that process's state block. This
number is increased every time a message is sent by that process"
(§4.3.3) — the message id used for duplicate suppression and for the
recorder's bookkeeping.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.net.frames import register_payload

#: Local id reserved for the kernel process on every node (§4.2.1).
KERNEL_LOCAL_ID = 0


@register_payload("pid")
class ProcessId(NamedTuple):
    """A network-wide process name: (creating node, local id)."""

    node: int
    local: int

    def __str__(self) -> str:
        return f"{self.node}.{self.local}"


@register_payload("mid")
class MessageId(NamedTuple):
    """A network-unique message identifier: (sender pid, send sequence)."""

    sender: ProcessId
    seq: int

    def __str__(self) -> str:
        return f"{self.sender}#{self.seq}"


def kernel_pid(node: int) -> ProcessId:
    """The pid of the kernel process resident on ``node``."""
    return ProcessId(node, KERNEL_LOCAL_ID)
