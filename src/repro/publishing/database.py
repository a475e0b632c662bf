"""The recorder's per-process database (§4.5).

"Each entry in the data base contains the following information: the
process identifier, the identifier of the most recent message sent by
the process, a list of ids of messages received by the process (since
the last checkpoint), the file name of the last checkpoint for the
process, the id of the first valid message, a list of disk pages
containing messages to the process, and whether or not the process is
recovering."

Two reconstruction problems are solved here:

* **Which recorded messages were consumed before a checkpoint?** The
  kernel's out-of-order-read advisories (§4.4.2) plus the consumed count
  carried in the checkpoint control let :meth:`ProcessRecord.consumed_ids`
  re-simulate the process's queue: non-advised receives take the queue
  head; an advisory ``(read, head)`` fires when its recorded head matches
  the simulated head. Those messages are invalid — checkpointed state
  already reflects them.
* **What must be replayed, in what order?** Valid queue messages in
  arrival order (the recovering process's own deterministic channel
  selections then reproduce the original consumption pattern), with
  process-control (DELIVERTOKERNEL) messages interleaved at their
  arrival positions (§4.4.3: "their ordering is preserved with respect
  to all other messages").

Storage is the log-structured engine of :mod:`repro.publishing.store`:
all processes' records append into one shared
:class:`~repro.publishing.store.SegmentedLog`; each
:class:`ProcessRecord` keeps a per-process index (the sequence numbers
of its records, with sparse ``(arrival_index, position)`` anchors) so
:meth:`messages_to_replay` and :meth:`consumed_ids` cost O(records
replayed), and checkpoint invalidation drives segment retirement and
the §4.5 compaction pass instead of holding dead records forever.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.demos.ids import MessageId, ProcessId
from repro.demos.links import Link
from repro.demos.messages import Message
from repro.errors import RecorderError
from repro.publishing.store import ANCHOR_EVERY, ReplayCursor, SegmentedLog


class LoggedMessage:
    """One published message in a process's stream.

    Lives inside a :class:`~repro.publishing.store.SegmentedLog`
    segment; flipping :attr:`invalid` routes through the owning record
    so live-byte accounting and segment GC stay exact no matter who
    performs the invalidation.
    """

    __slots__ = ("message", "arrival_index", "_invalid", "seq", "_record",
                 "checksum")

    def __init__(self, message: Message, arrival_index: int,
                 invalid: bool = False):
        self.message = message
        self.arrival_index = arrival_index
        self._invalid = invalid
        self.seq = -1
        self._record: Optional["ProcessRecord"] = None
        self.checksum: Optional[int] = None   # stamped by SegmentedLog.append

    @property
    def invalid(self) -> bool:
        return self._invalid

    @invalid.setter
    def invalid(self, value: bool) -> None:
        if value == self._invalid:
            return
        if not value:
            raise RecorderError(
                "a published record cannot be re-validated once invalid")
        self._invalid = True
        if self._record is not None:
            self._record._note_invalidated(self)

    @property
    def is_control(self) -> bool:
        """True for DELIVERTOKERNEL traffic (never enters the queue)."""
        return self.message.deliver_to_kernel

    @property
    def is_marker(self) -> bool:
        return self.message.recovery_marker

    def __repr__(self) -> str:    # pragma: no cover - debugging aid
        return (f"LoggedMessage({self.message!r}, {self.arrival_index}, "
                f"invalid={self._invalid})")


@dataclass
class CheckpointEntry:
    """The most recent stored checkpoint for a process."""

    data: Dict[str, Any]      # kernel snapshot: program state, links, counters
    consumed: int             # queue messages consumed when it was taken
    dtk_processed: int        # control messages processed when it was taken
    send_seq: int             # the process's send sequence at the snapshot
    pages: int                # checkpoint size, in pages
    stored_at: float          # simulated time it reached stable storage


@dataclass
class ProcessRecord:
    """Everything the recorder knows about one process."""

    pid: ProcessId
    node: int
    image: str
    args: Tuple = ()
    initial_links: Tuple[Link, ...] = ()
    recoverable: bool = True
    state_pages: int = 4
    last_sent_seq: int = 0
    recorded_ids: Set[MessageId] = field(default_factory=set)
    #: messages overheard and durably stored but whose delivery to the
    #: destination node has not yet been observed (§4.4.1 ack tracing)
    staged: Dict[MessageId, Message] = field(default_factory=dict)
    #: delivery confirmations of this process's *sends*: the contiguous
    #: confirmed prefix is the safe send-suppression horizon — anything
    #: beyond it may never have reached its receiver and must be re-sent
    #: by the recovered process (receivers deduplicate).
    confirmed_send_seqs: Set[int] = field(default_factory=set)
    confirmed_prefix: int = 0
    #: (read_id, head_id) pairs in the temporal order they were reported
    advisories: List[Tuple[MessageId, MessageId]] = field(default_factory=list)
    checkpoint: Optional[CheckpointEntry] = None
    recovering: bool = False
    recovery_epoch: int = 0    # bumped to cancel a superseded recovery (§3.5)
    destroyed: bool = False
    #: the shared segmented log this record's messages append into; a
    #: standalone record (unit tests) lazily creates a private one
    log: Optional[SegmentedLog] = field(default=None, repr=False, compare=False)

    # -- per-process index over the shared log -------------------------
    # `_seqs` holds the log sequence numbers of this process's records
    # in arrival order (append-only), `_anchors` a sparse
    # (arrival_index, position) pair every ANCHOR_EVERY records for
    # seek-by-arrival-index, `_live_bytes` the O(1) storage accounting,
    # and `_valid_cursor` the first-maybe-valid position — checkpoints
    # invalidate (mostly) prefixes and validity only ever goes
    # valid→invalid, so it advances monotonically and never rescans.
    _seqs: List[int] = field(default_factory=list, init=False, repr=False,
                             compare=False)
    _anchors: List[Tuple[int, int]] = field(default_factory=list, init=False,
                                            repr=False, compare=False)
    _live_bytes: int = field(default=0, init=False, repr=False, compare=False)
    _valid_cursor: int = field(default=0, init=False, repr=False,
                               compare=False)
    # -- the pruned replay view ----------------------------------------
    # `_live` is the per-process index's own compaction: an
    # arrival-ordered list of this process's records that drops dead
    # entries wholesale once half the list is invalid (`_live_dead`
    # counts them). `messages_to_replay` is then a single pass over
    # ~live records, and pruning un-pins compacted records' memory.
    _live: List[LoggedMessage] = field(default_factory=list, init=False,
                                       repr=False, compare=False)
    _live_dead: int = field(default=0, init=False, repr=False, compare=False)

    # -- incremental queue re-simulation (see consumed_ids) ------------
    # New arrivals route eagerly: queue messages into `_sim_queue`,
    # DELIVERTOKERNEL controls into `_controls` (tagged with their
    # control ordinal), markers into neither. The consumption order
    # already established never changes (arrivals only append, advisory
    # counts only grow), so `_consumed_ids` accumulates it permanently
    # while `_consumed_tail` keeps (ordinal, record) pairs only until a
    # checkpoint invalidates them — after which the records themselves
    # may be compacted away without this record pinning their memory.
    _sim_queue: Deque[LoggedMessage] = field(
        default_factory=deque, init=False, repr=False, compare=False)
    _sim_adv_cursor: int = field(default=0, init=False, repr=False,
                                 compare=False)
    _consumed_ids: List[MessageId] = field(default_factory=list, init=False,
                                           repr=False, compare=False)
    _consumed_tail: Deque[Tuple[int, LoggedMessage]] = field(
        default_factory=deque, init=False, repr=False, compare=False)
    _controls: Deque[Tuple[int, LoggedMessage]] = field(
        default_factory=deque, init=False, repr=False, compare=False)
    _controls_seen: int = field(default=0, init=False, repr=False,
                                compare=False)
    _ckpt_consumed_done: int = field(default=0, init=False, repr=False,
                                     compare=False)
    _ckpt_ctrl_done: int = field(default=0, init=False, repr=False,
                                 compare=False)

    def __post_init__(self) -> None:
        if self.log is None:
            self.log = SegmentedLog()

    # ------------------------------------------------------------------
    @property
    def arrivals(self) -> List[LoggedMessage]:
        """The surviving records of this process, in arrival order.

        A materialised view over the segmented log: records dropped by
        compaction (necessarily invalid) no longer appear. Mutating a
        returned record's ``invalid`` flag feeds back into the store's
        accounting — the flag is a property routed through the log.
        """
        log = self.log
        out = []
        for seq in self._seqs:
            lm = log.get(seq)
            if lm is not None:
                out.append(lm)
        return out

    # ------------------------------------------------------------------
    def record_message(self, message: Message, arrival_index: int) -> bool:
        """Store one overheard message; returns False for duplicates."""
        if message.msg_id in self.recorded_ids:
            return False
        self.force_append(message, arrival_index)
        return True

    def force_append(self, message: Message,
                     arrival_index: int) -> LoggedMessage:
        """Append unconditionally, bypassing duplicate suppression.

        This is the raw append path ``record_message`` guards; only the
        adversarial actors call it directly, to model a Byzantine
        recorder that double-logs a record.
        """
        self.recorded_ids.add(message.msg_id)
        lm = LoggedMessage(message, arrival_index)
        lm._record = self
        lm.seq = self.log.append(lm)
        if len(self._seqs) % ANCHOR_EVERY == 0:
            self._anchors.append((arrival_index, len(self._seqs)))
        self._seqs.append(lm.seq)
        self._live.append(lm)
        self._live_bytes += message.size_bytes
        # Route into the queue re-simulation eagerly (same order the
        # lazy feed used to establish): controls and markers never
        # enter the queue.
        if lm.is_control:
            self._controls.append((self._controls_seen, lm))
            self._controls_seen += 1
        elif not lm.is_marker:
            self._sim_queue.append(lm)
        return lm

    def note_sent(self, seq: int) -> None:
        """Track the highest send sequence seen from this process."""
        if seq > self.last_sent_seq:
            self.last_sent_seq = seq

    def stage_message(self, message: Message) -> bool:
        """Durably store an overheard message ahead of its delivery
        confirmation; returns False for duplicates."""
        if message.msg_id in self.staged or message.msg_id in self.recorded_ids:
            return False
        self.staged[message.msg_id] = message
        return True

    def confirm_message(self, message: Message, arrival_index: int) -> bool:
        """The destination received this message: append it to the
        replay log in reception order. Returns False if already there."""
        self.staged.pop(message.msg_id, None)
        return self.record_message(message, arrival_index)

    def note_send_confirmed(self, seq: int) -> None:
        """One of this process's sends reached its destination; advance
        the contiguous confirmed prefix."""
        self.confirmed_send_seqs.add(seq)
        while self.confirmed_prefix + 1 in self.confirmed_send_seqs:
            self.confirmed_prefix += 1
            self.confirmed_send_seqs.discard(self.confirmed_prefix)

    def add_advisory(self, read_id: MessageId, head_id: MessageId) -> None:
        """Record an out-of-order channel read (§4.4.2)."""
        self.advisories.append((read_id, head_id))

    # ------------------------------------------------------------------
    def _note_invalidated(self, lm: LoggedMessage) -> None:
        """A record went valid→invalid (checkpoint coverage, process
        destruction, or a direct flip): keep the O(1) byte accounting
        and the segment GC in step, and prune the replay view once half
        of it is dead (amortized O(1) per invalidation)."""
        self._live_bytes -= lm.message.size_bytes
        self.log.invalidate(lm.seq, lm.message.size_bytes)
        self._live_dead += 1
        live = self._live
        if self._live_dead * 2 >= len(live) and len(live) >= 16:
            self._live = [rec for rec in live if not rec._invalid]
            self._live_dead = 0

    def invalidate_all(self) -> int:
        """Invalidate every surviving record — "when the process is
        terminated, all messages queued for it are also discarded".
        Returns how many records were newly invalidated."""
        count = 0
        for lm in list(self._live):     # pruning may rebind _live mid-walk
            if not lm.invalid:
                lm.invalid = True
                count += 1
        return count

    # ------------------------------------------------------------------
    def _advance_simulation(self, target: int) -> None:
        """Push the queue re-simulation until ``target`` consumptions are
        known (or the queue runs dry). A mismatched advisory raises
        without advancing its cursor, so the error repeats on retry —
        and resolves if the missing message arrives later."""
        queue = self._sim_queue
        consumed_ids = self._consumed_ids
        tail = self._consumed_tail
        advisories = self.advisories
        cursor = self._sim_adv_cursor
        while len(consumed_ids) < target and queue:
            if (cursor < len(advisories)
                    and advisories[cursor][1] == queue[0].message.msg_id):
                read_id = advisories[cursor][0]
                for index, lm in enumerate(queue):
                    if lm.message.msg_id == read_id:
                        del queue[index]
                        break
                else:
                    raise RecorderError(
                        f"advisory for {read_id} does not match the log of {self.pid}")
                cursor += 1
                self._sim_adv_cursor = cursor
            else:
                lm = queue.popleft()
            tail.append((len(consumed_ids), lm))
            consumed_ids.append(lm.message.msg_id)

    def consumed_ids(self, consumed_count: int) -> Set[MessageId]:
        """Re-simulate the process's queue to find which of the recorded
        messages were the first ``consumed_count`` consumptions.

        The simulation runs incrementally: the consumption order already
        established never changes (arrivals only append, advisory counts
        only grow), so each call extends the previous one instead of
        replaying from process creation.
        """
        self._advance_simulation(consumed_count)
        return set(self._consumed_ids[:consumed_count])

    def apply_checkpoint(self, entry: CheckpointEntry) -> int:
        """Install a new checkpoint and invalidate the messages its state
        already reflects. Returns how many messages were invalidated —
        "after the checkpoint has been reliably stored, older checkpoints
        and messages can be discarded" (§3.3.1).

        Checkpoint consumed/control counts are cumulative, so each pass
        only walks the newly covered consumptions, not the whole log —
        and invalidation feeds the segment GC, which retires fully-dead
        segments and compacts mostly-dead ones (§4.5).
        """
        self.checkpoint = entry
        self._advance_simulation(entry.consumed)
        invalidated = 0
        start = self._ckpt_consumed_done
        tail = self._consumed_tail
        while tail and tail[0][0] < entry.consumed:
            ordinal, lm = tail.popleft()
            if ordinal < start:
                continue      # covered by an earlier (larger) checkpoint
            if not lm.invalid:
                lm.invalid = True
                invalidated += 1
        self._ckpt_consumed_done = max(start, entry.consumed)
        start = self._ckpt_ctrl_done
        controls = self._controls
        while controls and controls[0][0] < entry.dtk_processed:
            ordinal, lm = controls.popleft()
            if ordinal < start:
                continue
            if not lm.invalid:
                lm.invalid = True
                invalidated += 1
        self._ckpt_ctrl_done = max(start, entry.dtk_processed)
        # Advisories are kept: checkpoint consumed-counts are cumulative,
        # so later invalidation passes continue the same simulation.
        return invalidated

    # ------------------------------------------------------------------
    def _skip_invalid_prefix(self) -> int:
        """Position (into the per-process index) of the first surviving,
        non-invalid record. Checkpoints invalidate (mostly) prefixes and
        validity only ever goes valid→invalid, so the cursor advances
        monotonically and never rescans the front."""
        seqs = self._seqs
        log_get = self.log.get
        i = self._valid_cursor
        n = len(seqs)
        while i < n:
            lm = log_get(seqs[i])
            if lm is not None and not lm._invalid:
                break
            i += 1
        self._valid_cursor = i
        return i

    def replay_cursor(self, verify: bool = False) -> ReplayCursor:
        """A cursor over the records to inspect for replay, starting at
        the first valid one — the §4.7 recovery loop walks this instead
        of rescanning the log from position zero, and can keep calling
        ``next()`` as fresh arrivals append during catch-up.

        ``verify=True`` re-checksums every yielded record (the quorum /
        recovery read path); corruption raises
        :class:`~repro.errors.RecordCorruptionError` instead of handing
        back a mangled record."""
        return ReplayCursor(self, self._skip_invalid_prefix(),
                            verify=verify)

    def cursor_at_arrival(self, arrival_index: int) -> ReplayCursor:
        """A cursor positioned at the first record whose arrival index
        is ≥ ``arrival_index``, found through the sparse per-process
        index — the "(process, arrival_index)" seek path."""
        anchors = self._anchors
        lo, hi = 0, len(anchors)
        while lo < hi:
            mid = (lo + hi) // 2
            if anchors[mid][0] < arrival_index:
                lo = mid + 1
            else:
                hi = mid
        pos = anchors[lo - 1][1] if lo else 0
        seqs = self._seqs
        log = self.log
        n = len(seqs)
        while pos < n:
            lm = log.get(seqs[pos])
            if lm is not None and lm.arrival_index >= arrival_index:
                break
            pos += 1
        return ReplayCursor(self, pos)

    def messages_to_replay(self) -> List[LoggedMessage]:
        """The valid messages to replay, in arrival order.

        Markers are included so the recovery process can find its own
        hand-back marker; it skips any others. Costs O(records replayed):
        one pass over the pruned replay view, which holds at most ~2x
        the live records.
        """
        return [lm for lm in self._live if not lm._invalid]

    def valid_message_bytes(self) -> int:
        """Stored bytes still needed for recovery (storage accounting).
        O(1): maintained at record/invalidate time."""
        return self._live_bytes

    def first_valid_id(self) -> Optional[MessageId]:
        """'The id of the first valid message' (§4.5)."""
        for lm in self._live:
            if not lm._invalid and not lm.is_marker:
                return lm.message.msg_id
        return None


class RecorderDatabase:
    """pid → :class:`ProcessRecord`, plus global arrival numbering.

    "The process data base is just a summary of the information that
    appears on disk. If the recorder crashes, it is possible to rebuild
    the data base from the disk" (§4.5) — accordingly the database
    object itself lives inside the recorder's stable storage. All
    records share one :class:`SegmentedLog`, so the arrival numbering
    doubles as the log's append order.
    """

    def __init__(self, log: Optional[SegmentedLog] = None) -> None:
        self.records: Dict[ProcessId, ProcessRecord] = {}
        self.next_arrival_index = 0
        self.log = log if log is not None else SegmentedLog()

    def create(self, pid: ProcessId, node: int, image: str, args: Tuple = (),
               initial_links: Tuple[Link, ...] = (), recoverable: bool = True,
               state_pages: int = 4) -> ProcessRecord:
        """Register a process from its creation notice; idempotent."""
        existing = self.records.get(pid)
        if existing is not None and not existing.destroyed:
            return existing
        record = ProcessRecord(pid=pid, node=node, image=image, args=tuple(args),
                               initial_links=tuple(initial_links),
                               recoverable=recoverable, state_pages=state_pages,
                               log=self.log)
        self.records[pid] = record
        return record

    def get(self, pid: ProcessId) -> Optional[ProcessRecord]:
        return self.records.get(pid)

    def require(self, pid: ProcessId) -> ProcessRecord:
        record = self.records.get(pid)
        if record is None:
            raise RecorderError(f"no database entry for process {pid}")
        return record

    def allocate_arrival_index(self) -> int:
        index = self.next_arrival_index
        self.next_arrival_index += 1
        return index

    def processes_on(self, node: int) -> List[ProcessRecord]:
        """Live, recoverable records located on ``node``."""
        return [r for r in self.records.values()
                if r.node == node and not r.destroyed and r.recoverable]

    def live_records(self) -> List[ProcessRecord]:
        return [r for r in self.records.values() if not r.destroyed]

    def total_valid_bytes(self) -> int:
        """Message + checkpoint storage still held (§5.1's 2.76 MB stat)."""
        total = 0
        for record in self.records.values():
            total += record.valid_message_bytes()
            if record.checkpoint is not None:
                total += record.checkpoint.pages * 1024
        return total
