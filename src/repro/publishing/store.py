"""The recorder's log-structured storage engine: the disk's accounting.

The thesis's recorder "publishes" every message on the network and must
replay a process's stream since its last checkpoint (§4.4–§4.5); its
evaluation shows the disk saturates until messages are batched into
4 KB pages (§5.1), and §4.5 prescribes the reclamation pass: "Before
allocating a buffer to a disk page, the disk page is read in. Any
messages that are no longer valid are removed and the buffer is
compacted."

This module is the storage-engine shape those sections imply, done the
LFS way (Rosenblum & Ousterhout):

* :class:`SegmentedLog` — one append-only log shared by every process,
  cut into fixed-size **segments**. ``append`` assigns each
  :class:`~repro.publishing.database.LoggedMessage` its sequence number
  once, for good, and stamps its checksum. The log models the *disk*:
  a segment is what the disk holds of a run of records — how many are
  still valid, how many bytes they take, how many bytes the run still
  occupies — and holds no record itself. Where a record lives in memory
  and how it is found is :mod:`repro.publishing.database`'s business
  alone (§4.5: one list per process).
* **Checkpoint-driven compaction/GC** — invalidating a record updates
  its segment's live accounting. A sealed segment whose records are all
  invalid is **retired** (a modeled read, the space freed); a sealed
  segment whose live bytes fall to half or less is **compacted** — the
  §4.5 pass: the segment is read in (modeled disk read), dead records
  removed, and the live tail rewritten (modeled disk write). Between
  them they bound the bytes held to ≈2× the live bytes (plus the
  unsealed head segment).

The group-commit half of the engine (shared 4 KB pages with a flush
deadline) lives in :class:`~repro.publishing.disk.PageBuffer`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional
from zlib import crc32

from repro.errors import ConfigError
from repro.net.frames import canonical_bytes

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from repro.publishing.database import LoggedMessage

#: io callback signature: (op, size_bytes) -> completion time
IoSubmit = Callable[[str, int], float]


def payload_digest(message) -> int:
    """A deterministic checksum over everything replay depends on.

    crc32 over the message's wire encoding — the encoding the frame
    checksum is computed over, every field included. Cheap enough to
    stamp on every append, stable across processes and platforms
    (unlike ``hash()``, which is salted for strings). Two messages agree
    on the digest iff a replayed process could not tell them apart.
    A message that holds nothing mutable carries that encoding from its
    first frame on (:class:`~repro.net.frames.WireImage`), so here it is
    read, not recomputed; any other message is walked, every time.
    """
    return crc32(canonical_bytes(message))


class LogSegment:
    """What the modeled disk holds of one fixed-size run of the log."""

    __slots__ = ("appended", "live", "live_bytes", "held_bytes")

    def __init__(self) -> None:
        self.appended = 0             # records ever written to the run
        self.live = 0                 # of those, still valid
        self.live_bytes = 0
        self.held_bytes = 0           # bytes the run still occupies


class SegmentedLog:
    """The append-only segmented record log's sequence numbering and
    GC accounting."""

    def __init__(self, segment_records: int = 64,
                 io: Optional[IoSubmit] = None):
        if segment_records < 1:
            raise ConfigError("segments need at least one record slot")
        self.segment_records = segment_records
        self._io = io
        self._segments: Dict[int, LogSegment] = {}
        self.next_seq = 0
        # -- global accounting (the recorder.* gauges read these) ------
        self.live_records = 0
        self.live_bytes = 0
        self.compactions = 0          # §4.5 rewrite passes
        self.segments_retired = 0     # fully-dead segments dropped whole
        self.compaction_read_bytes = 0
        self.compaction_written_bytes = 0

    # ------------------------------------------------------------------
    def attach_io(self, io: Optional[IoSubmit]) -> None:
        """Wire the modeled disk the compaction passes charge their
        read+write traffic to (the recorder's :class:`DiskArray`)."""
        self._io = io

    # ------------------------------------------------------------------
    def append(self, record: "LoggedMessage") -> int:
        """Append one record; returns its permanent sequence number."""
        seq = self.next_seq
        self.next_seq = seq + 1
        number = seq // self.segment_records
        segment = self._segments.get(number)
        if segment is None:
            segment = self._segments[number] = LogSegment()
        record.checksum = payload_digest(record.message)
        size = record.message.size_bytes
        segment.appended += 1
        segment.live += 1
        segment.live_bytes += size
        segment.held_bytes += size
        self.live_records += 1
        self.live_bytes += size
        return seq

    # ------------------------------------------------------------------
    def invalidate(self, seq: int, size_bytes: int) -> None:
        """The record at ``seq`` went valid→invalid: update the
        accounting and run its segment's GC check. Once per record —
        validity never comes back, and ``LoggedMessage.invalid``'s
        setter (the caller) ignores a repeat."""
        number = seq // self.segment_records
        segment = self._segments[number]
        segment.live -= 1
        segment.live_bytes -= size_bytes
        self.live_records -= 1
        self.live_bytes -= size_bytes
        if segment.appended < self.segment_records:
            return        # the head segment is still being written
        if segment.live == 0:
            # "older checkpoints and messages can be discarded" (§3.3.1):
            # every record is invalid, drop the segment whole.
            self._submit_io("read", segment.held_bytes)
            self.segments_retired += 1
            del self._segments[number]
        elif segment.live_bytes * 2 <= segment.held_bytes:
            # The §4.5 pass: read the segment in, remove invalid
            # records, write the compacted live tail back.
            self._submit_io("read", segment.held_bytes)
            segment.held_bytes = segment.live_bytes
            self.compactions += 1
            self._submit_io("write", segment.live_bytes)

    def _submit_io(self, op: str, size_bytes: int) -> None:
        if size_bytes <= 0:
            return
        if op == "read":
            self.compaction_read_bytes += size_bytes
        else:
            self.compaction_written_bytes += size_bytes
        if self._io is not None:
            self._io(op, size_bytes)

    # ------------------------------------------------------------------
    # the figures behind the recorder.* gauges
    # ------------------------------------------------------------------
    @property
    def segments(self) -> int:
        """Segments the disk still holds."""
        return len(self._segments)

    @property
    def log_bytes(self) -> int:
        """Message bytes still held, live or dead-but-uncompacted.
        Compaction keeps this bounded: every sealed segment holds at
        most 2× its live bytes, so the whole log stays within 2× the
        live bytes plus the unsealed head segment's dead tail."""
        return sum(s.held_bytes for s in self._segments.values())
