"""Per-process message queues with channel-selective receive (§4.2.2.2).

"The DEMOS message kernel maintains a queue of input messages for each
process. ... Whenever a process performs a receive kernel call, it
specifies the channels from which it is willing to receive a message.
Instead of returning the next message in the queue, the message kernel
returns the next message in the queue which belongs to one of those
channels."

Publishing needs to know when channels cause messages to be read out of
arrival order (§4.4.2), so :meth:`take_next` also reports whether the
selected message was the queue head.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Optional, Tuple

from repro.demos.messages import Message


class MessageQueue:
    """FIFO of waiting messages with channel filtering."""

    def __init__(self) -> None:
        self._queue: Deque[Message] = deque()

    def append(self, message: Message) -> None:
        """Enqueue at the tail (arrival order)."""
        self._queue.append(message)

    def take_next(self, channels: Optional[Iterable[int]]) -> Tuple[Optional[Message], bool]:
        """Remove and return the next matching message.

        Returns ``(message, was_head)``; ``was_head`` is False when the
        channel filter skipped over earlier messages — the condition that
        obliges the kernel to advise the recorder of the read order.
        ``(None, True)`` means nothing matched.
        """
        allowed = None if channels is None else set(channels)
        for index, msg in enumerate(self._queue):
            if allowed is None or msg.channel in allowed:
                del self._queue[index]
                return msg, index == 0
        return None, True

    def head(self) -> Optional[Message]:
        """The arrival-order head, or None."""
        return self._queue[0] if self._queue else None

    def clear(self) -> None:
        """Drop everything (process destruction)."""
        self._queue.clear()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)
