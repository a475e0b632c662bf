"""Stable storage for the recorder (§1.1.3, §3.3.4).

"Information is preserved across a crash in a non-volatile storage
facility, that is, one that has low probability of being altered by the
crash." The recorder keeps two durable things here:

* its database — "just a summary of the information that appears on
  disk": the published message log and checkpoints (§4.5);
* the restart counter of §3.4, incremented on every recorder restart so
  stale state replies can be recognised and ignored.

A :class:`StableStorage` deliberately survives ``Recorder.crash()`` —
that is the point of stable storage — while everything the recorder
holds outside it, the partly filled page buffer included, is dropped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.publishing.database import RecorderDatabase


class StableStorage:
    """The recorder's database and its restart counter."""

    def __init__(self, db: RecorderDatabase) -> None:
        self.db = db
        #: the current restart epoch (§3.4)
        self.restart_number = 0

    def begin_restart(self) -> int:
        """Increment and return the restart counter — called at the start
        of every recorder restart, so responses belonging to a previous
        restart attempt carry a stale number and are discarded."""
        self.restart_number += 1
        return self.restart_number
