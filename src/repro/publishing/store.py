"""The recorder's log-structured storage engine.

The thesis's recorder "publishes" every message on the network and must
replay a process's stream since its last checkpoint (§4.4–§4.5); its
evaluation shows the disk saturates until messages are batched into
4 KB pages (§5.1), and §4.5 prescribes the reclamation pass: "Before
allocating a buffer to a disk page, the disk page is read in. Any
messages that are no longer valid are removed and the buffer is
compacted."

This module is the storage-engine shape those sections imply, done the
LFS way (Rosenblum & Ousterhout):

* :class:`SegmentedLog` — one append-only log of
  :class:`~repro.publishing.database.LoggedMessage` records shared by
  every process, cut into fixed-size **segments**. A record's sequence
  number is assigned once and never changes, so per-process indexes and
  replay cursors stay valid across compaction.
* **Checkpoint-driven compaction/GC** — invalidating a record updates
  its segment's live accounting. A sealed segment whose records are all
  invalid is **retired** (its memory dropped); a sealed segment whose
  live bytes fall to half or less is **compacted** — the §4.5 pass:
  the segment is read in (modeled disk read), dead records removed, and
  the live tail rewritten (modeled disk write) into a sparse segment at
  the same sequence numbers. Between them they bound the bytes held to
  ≈2× the live bytes (plus the unsealed head segment).
* :class:`ReplayCursor` — a per-process iterator over surviving records
  in arrival order, keyed by the process's **sparse index**
  (``(arrival_index, position)`` anchors every few records), so
  ``messages_to_replay`` costs O(records replayed) rather than
  O(log length), and a catch-up replay can resume after new arrivals
  without rescanning the front of the log.

The group-commit half of the engine (shared 4 KB pages with a flush
deadline) lives in :class:`~repro.publishing.disk.PageBuffer`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional
from zlib import crc32

from repro.errors import RecordCorruptionError
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
    """One fixed-size run of the log.

    ``records`` is a dense list while the segment fills; a compaction
    replaces it with a sparse ``{offset: record}`` dict holding only the
    survivors. Either way a record is addressed by its offset from
    ``base``, so global sequence numbers stay stable for the segment's
    whole life.
    """

    __slots__ = ("base", "capacity", "records", "live", "live_bytes",
                 "held_bytes", "sparse")

    def __init__(self, base: int, capacity: int):
        self.base = base
        self.capacity = capacity
        self.records: object = []     # List while dense, Dict once sparse
        self.live = 0                 # valid records still in the segment
        self.live_bytes = 0
        self.held_bytes = 0           # bytes of every record still held
        self.sparse = False

    @property
    def sealed(self) -> bool:
        """Full segments only: compaction never touches the head
        segment the log is still appending into."""
        if self.sparse:
            return True
        return len(self.records) >= self.capacity

    def get(self, offset: int) -> Optional["LoggedMessage"]:
        if self.sparse:
            return self.records.get(offset)        # type: ignore[union-attr]
        if 0 <= offset < len(self.records):        # type: ignore[arg-type]
            return self.records[offset]            # type: ignore[index]
        return None


class SegmentedLog:
    """The append-only segmented record log plus its GC accounting."""

    def __init__(self, segment_records: int = 64,
                 io: Optional[IoSubmit] = None):
        if segment_records < 1:
            raise ValueError("segments need at least one record slot")
        self.segment_records = segment_records
        self._io = io
        self._segments: Dict[int, LogSegment] = {}
        self.next_seq = 0
        # -- global accounting (the recorder.* gauges read these) ------
        self.live_records = 0
        self.live_bytes = 0
        self.records_appended = 0
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
            segment = LogSegment(number * self.segment_records,
                                 self.segment_records)
            self._segments[number] = segment
        segment.records.append(record)             # type: ignore[union-attr]
        record.checksum = payload_digest(record.message)
        size = record.message.size_bytes
        segment.live += 1
        segment.live_bytes += size
        segment.held_bytes += size
        self.live_records += 1
        self.live_bytes += size
        self.records_appended += 1
        return seq

    def get(self, seq: int) -> Optional["LoggedMessage"]:
        """The record at ``seq``, or None once compaction dropped it."""
        segment = self._segments.get(seq // self.segment_records)
        if segment is None:
            return None
        return segment.get(seq - segment.base)

    # ------------------------------------------------------------------
    def invalidate(self, seq: int, size_bytes: int) -> None:
        """A record went valid→invalid: update the accounting and run
        the segment's GC check. Tolerates records already dropped by an
        earlier compaction (idempotence against double invalidation)."""
        segment = self._segments.get(seq // self.segment_records)
        if segment is None:
            return
        if segment.get(seq - segment.base) is None:
            return
        segment.live -= 1
        segment.live_bytes -= size_bytes
        self.live_records -= 1
        self.live_bytes -= size_bytes
        self._maybe_collect(seq // self.segment_records, segment)

    def _maybe_collect(self, number: int, segment: LogSegment) -> None:
        if not segment.sealed:
            return        # the head segment is still being written
        if segment.live == 0:
            # "older checkpoints and messages can be discarded" (§3.3.1):
            # every record is invalid, drop the segment whole.
            self._submit_io("read", segment.held_bytes)
            self.segments_retired += 1
            segment.records = {} if segment.sparse else []
            segment.held_bytes = 0
            del self._segments[number]
            return
        if segment.live_bytes * 2 <= segment.held_bytes:
            self._compact(segment)

    def _compact(self, segment: LogSegment) -> None:
        """The §4.5 pass: read the segment in, remove invalid records,
        write the compacted live tail back — at the same sequence
        numbers, so indexes and cursors never move."""
        self._submit_io("read", segment.held_bytes)
        if segment.sparse:
            survivors = {off: lm
                         for off, lm in segment.records.items()  # type: ignore[union-attr]
                         if not lm.invalid}
        else:
            survivors = {off: lm
                         for off, lm in enumerate(segment.records)  # type: ignore[arg-type]
                         if not lm.invalid}
        segment.records = survivors
        segment.sparse = True
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
        """Segments currently held in memory."""
        return len(self._segments)

    @property
    def log_bytes(self) -> int:
        """Message bytes still held, live or dead-but-uncompacted.
        Compaction keeps this bounded: every sealed segment holds at
        most 2× its live bytes, so the whole log stays within 2× the
        live bytes plus the unsealed head segment's dead tail."""
        return sum(s.held_bytes for s in self._segments.values())


#: sparse-index density: one ``(arrival_index, position)`` anchor per
#: this many records keeps seeks cheap without indexing every record
ANCHOR_EVERY = 32


class ReplayCursor:
    """Iterates one process's surviving records in arrival order.

    The cursor remembers the last *sequence number* it passed, not a
    list position, so it stays correct while new records append and
    while compaction drops dead ones. ``next()`` returns each surviving
    record once (valid or not — the §4.4.3 replay loop decides what to
    skip) and None when it has caught up with the head of the log.

    With ``verify=True`` every returned record is re-checksummed against
    the digest stamped at append time; a mismatch raises
    :class:`~repro.errors.RecordCorruptionError` *after* the cursor has
    advanced past the bad record, so a caller may catch, count, and keep
    reading — a mangled record is never silently yielded.
    """

    __slots__ = ("_record", "_pos", "_last_seq", "_verify")

    def __init__(self, record, pos: int = 0, verify: bool = False):
        self._record = record
        self._pos = pos               # index into the per-process seq list
        self._last_seq = -1 if pos == 0 else record._seqs[pos - 1]
        self._verify = verify

    def next(self) -> Optional["LoggedMessage"]:
        seqs = self._record._seqs
        pos = self._pos
        if pos < len(seqs) and (pos == 0 or seqs[pos - 1] == self._last_seq):
            pass                      # fast path: nothing shifted under us
        else:
            pos = _bisect_right(seqs, self._last_seq)
        log = self._record.log
        n = len(seqs)
        while pos < n:
            seq = seqs[pos]
            pos += 1
            self._pos = pos
            self._last_seq = seq
            lm = log.get(seq)
            if lm is not None:
                if (self._verify and lm.checksum is not None
                        and lm.checksum != payload_digest(lm.message)):
                    raise RecordCorruptionError(
                        f"record seq={seq} for {lm.message.msg_id} failed "
                        "its checksum")
                return lm
            # compacted away: it was invalid, the replay loop would have
            # skipped it anyway
        self._pos = pos
        return None


def _bisect_right(seqs: List[int], value: int) -> int:
    lo, hi = 0, len(seqs)
    while lo < hi:
        mid = (lo + hi) // 2
        if seqs[mid] <= value:
            lo = mid + 1
        else:
            hi = mid
    return lo
