"""Links: the DEMOS capability objects (§4.2.2.1).

"A link is much like a capability. It allows access and is immutable
and unforgable. A DEMOS process must have a link to another process in
order to send it messages. Links exist outside of the address space of
the processes, either in messages or in kernel resident link tables. A
link can only be accessed in certain kernel calls ... The process
always refers to a link via a link id, which is the link's index into
the link table."

``deliver_to_kernel`` marks the special DELIVERTOKERNEL links of §4.4.3:
a message sent over one is handed not to the process it points at but to
the kernel process on that process's node, which performs the control
operation while "assuming the identity" of the controlled process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, Tuple

from repro.demos.ids import ProcessId
from repro.errors import LinkError
from repro.net.frames import register_payload


@register_payload("link")
@dataclass(frozen=True)
class Link:
    """An immutable capability to send messages to ``dst``.

    ``channel`` and ``code`` are stamped into the header of every message
    sent over the link (§4.2.2.1-2); the receiver chose them when it
    created the link, so it can classify arriving traffic.
    """

    dst: ProcessId
    channel: int = 0
    code: int = 0
    deliver_to_kernel: bool = False

    def with_code(self, code: int) -> "Link":
        """A copy of this link carrying a different code.

        Used by servers handing out per-resource links (e.g. the file
        system returns a link "whose code identifies the file").
        """
        return replace(self, code=code)


class LinkTable:
    """The kernel-resident link table of one process.

    Link ids are small integers handed to the process; the table maps
    them to :class:`Link` values. Moving a link (into a message, or via
    MOVELINK) removes it from the table — a link exists in exactly one
    place at a time.
    """

    def __init__(self) -> None:
        self._links: Dict[int, Link] = {}
        self._next_id = 1

    def insert(self, link: Link) -> int:
        """Add a link, returning its new link id."""
        link_id = self._next_id
        self._next_id += 1
        self._links[link_id] = link
        return link_id

    def get(self, link_id: int) -> Link:
        """The link for ``link_id``; raises :class:`LinkError` if absent."""
        try:
            return self._links[link_id]
        except KeyError:
            raise LinkError(f"no link with id {link_id}") from None

    def has(self, link_id: int) -> bool:
        """True if ``link_id`` names a live link."""
        return link_id in self._links

    def remove(self, link_id: int) -> Link:
        """Remove and return the link (it is being moved elsewhere)."""
        try:
            return self._links.pop(link_id)
        except KeyError:
            raise LinkError(f"no link with id {link_id}") from None

    def snapshot(self) -> Tuple[Dict[int, Link], int]:
        """A copy of the table contents and id counter, for checkpoints.

        The counter must be part of the snapshot: a recovered process has
        to assign the *same* link ids it assigned the first time, or its
        behaviour would diverge from the pre-crash execution.
        """
        return dict(self._links), self._next_id

    def restore(self, snapshot: Tuple[Dict[int, Link], int]) -> None:
        """Replace the table contents from a checkpoint snapshot."""
        contents, next_id = snapshot
        self._links = dict(contents)
        self._next_id = next_id

    def __len__(self) -> int:
        return len(self._links)

    def __iter__(self) -> Iterator[Tuple[int, Link]]:
        return iter(self._links.items())
