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

**Where a logged record lives and how it is found** is decided here
and nowhere else. It lives in one place, its process's arrival-ordered
view :attr:`ProcessRecord._live` — §4.5's "list of ids of messages
received by the process" — which drops its dead entries wholesale once
half of them are dead, so it holds at most 2× the live records. It is
found by walking that view: :meth:`~ProcessRecord.messages_to_replay`,
:attr:`~ProcessRecord.arrivals`, :meth:`~ProcessRecord.first_valid_id`
and :class:`ReplayCursor` are reads of it, each O(records replayed).
It gets there one way: :meth:`RecorderDatabase.deliver` takes a
confirmed delivery to :meth:`ProcessRecord.record_message`. The shared
:class:`~repro.publishing.store.SegmentedLog` numbers and checksums
every record and keeps the modeled disk's accounting — §4.5's "list of
disk pages" — so checkpoint invalidation still drives segment
retirement and the §4.5 compaction pass; it holds no record.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, Iterator, List, Optional, Set,
                    Tuple)

from repro.demos.ids import MessageId, ProcessId
from repro.demos.links import Link
from repro.demos.messages import Message
from repro.errors import RecordCorruptionError, RecorderError
from repro.publishing.store import SegmentedLog, payload_digest


class LoggedMessage:
    """One published message in a process's stream.

    Lives in its :class:`ProcessRecord`'s view, numbered and accounted
    for by the :class:`~repro.publishing.store.SegmentedLog`; flipping
    :attr:`invalid` routes through the owning record so live-byte
    accounting and segment GC stay exact no matter who performs the
    invalidation — once: a repeat is ignored, a re-validation refused.
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


class ReplayCursor:
    """Iterates one process's surviving records in arrival order.

    The cursor walks the record's view remembering, beside its
    position, the last *sequence number* it passed — so it stays
    correct while new records append and while a prune drops dead ones
    from under it: when the entry before its position is no longer the
    record it passed, it finds its place again by bisecting the view
    (append order, so ascending) on ``seq``. It starts at the first
    valid record; ``next()`` returns each surviving record once (valid
    or not — the §4.4.3 replay loop decides what to skip, and the
    quorum vote must see an invalidated head to know a checkpoint
    covers it) and None when it has caught up with the head of the log.

    With ``verify=True`` every returned record is re-checksummed against
    the digest stamped at append time; a mismatch raises
    :class:`~repro.errors.RecordCorruptionError` *after* the cursor has
    advanced past the bad record, so a caller may catch, count, and keep
    reading — a mangled record is never silently yielded.
    """

    __slots__ = ("_record", "_pos", "_last_seq", "_verify")

    def __init__(self, record: "ProcessRecord", verify: bool = False):
        live = record._live
        pos = 0
        while pos < len(live) and live[pos]._invalid:
            pos += 1
        self._record = record
        self._pos = pos               # index into the record's view
        self._last_seq = live[pos - 1].seq if pos else -1
        self._verify = verify

    def next(self) -> Optional[LoggedMessage]:
        live = self._record._live
        pos = self._pos
        last_seq = self._last_seq
        if pos and (pos > len(live) or live[pos - 1].seq != last_seq):
            # pruned since the last call: the first record past last_seq
            pos, hi = 0, len(live)
            while pos < hi:
                mid = (pos + hi) // 2
                if live[mid].seq <= last_seq:
                    pos = mid + 1
                else:
                    hi = mid
        if pos == len(live):
            self._pos = pos
            return None
        lm = live[pos]
        self._pos = pos + 1
        self._last_seq = lm.seq
        if self._verify and lm.checksum != payload_digest(lm.message):
            raise RecordCorruptionError(
                f"record seq={lm.seq} for {lm.message.msg_id} failed "
                "its checksum")
        return lm


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

    # -- the one per-process view ---------------------------------------
    # `_live` holds this process's records in arrival order (so in
    # ascending `seq` order too) and drops dead entries wholesale once
    # half of 16 or more are invalid (`_live_dead` counts them), letting
    # go of their memory: at most 2x the live records, and every read
    # below is one pass over them. `_live_bytes` is the O(1) storage
    # accounting.
    _live: List[LoggedMessage] = field(default_factory=list, init=False,
                                       repr=False, compare=False)
    _live_dead: int = field(default=0, init=False, repr=False, compare=False)
    _live_bytes: int = field(default=0, init=False, repr=False, compare=False)

    # -- incremental queue re-simulation (see consumed_ids) ------------
    # New arrivals route eagerly: queue messages into `_sim_queue`,
    # DELIVERTOKERNEL controls into `_controls` (tagged with their
    # control ordinal), markers into neither. The consumption order
    # already established never changes (arrivals only append, advisory
    # counts only grow), so `_consumed_ids` accumulates it permanently
    # while `_consumed_tail` keeps (ordinal, record) pairs only until a
    # checkpoint invalidates them — after which the records themselves
    # may be pruned from the view without this pinning their memory.
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

        A copy of the view: records a prune dropped (necessarily
        invalid) no longer appear. Mutating a returned record's
        ``invalid`` flag feeds back into the store's accounting — the
        flag is a property routed through the log.
        """
        return list(self._live)

    # ------------------------------------------------------------------
    def record_message(self, message: Message, arrival_index: int,
                       forced: bool = False) -> Optional[LoggedMessage]:
        """The destination received this message: append it to the
        replay log in reception order (releasing its staged copy) and
        return the logged record — None for a duplicate.

        ``forced`` appends even a duplicate. Only an adversary stage's
        verdict, carried here by :meth:`RecorderDatabase.deliver`, may
        pass it: it models a Byzantine recorder that double-logs.
        """
        self.staged.pop(message.msg_id, None)
        if message.msg_id in self.recorded_ids and not forced:
            return None
        self.recorded_ids.add(message.msg_id)
        lm = LoggedMessage(message, arrival_index)
        lm._record = self
        lm.seq = self.log.append(lm)
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
        and the segment GC in step, and prune the view once half of it
        is dead (amortized O(1) per invalidation)."""
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
    def replay_cursor(self, verify: bool = False) -> ReplayCursor:
        """A cursor over the records to inspect for replay, starting at
        the first valid one — the §4.7 recovery loop walks this instead
        of rescanning the log from position zero, and can keep calling
        ``next()`` as fresh arrivals append during catch-up.

        ``verify=True`` re-checksums every yielded record (the quorum /
        recovery read path); corruption raises
        :class:`~repro.errors.RecordCorruptionError` instead of handing
        back a mangled record."""
        return ReplayCursor(self, verify=verify)

    def messages_to_replay(self) -> List[LoggedMessage]:
        """The valid messages to replay, in arrival order.

        Markers are included so the recovery process can find its own
        hand-back marker; it skips any others. Costs O(records replayed):
        one pass over the view, which holds at most ~2x the live
        records.
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

    def deliver(self, message: Message,
                record_for: Callable[[Message], Optional[ProcessRecord]],
                intercept=None) -> Iterator[LoggedMessage]:
        """The one way a confirmed delivery enters the log.

        Without ``intercept`` (or for a recovery marker — the recovery
        protocol's own traffic, never intercepted) the message is
        recorded as it is. With one, the adversary stage decides what is
        logged in its place: nothing, a rewritten copy, the message
        twice, or a message it held back from an *earlier* delivery —
        possibly another process's, which is why ``record_for`` is asked
        per logged message, not once. ``record_for`` returns the record
        to append to, or None to leave the message out.

        Yields each record appended; the stage's ``note_confirmed``
        (where ``bitrot`` mangles the stored copy) runs when the caller
        comes back for the next, i.e. after it has announced this one.
        """
        stage = None if message.recovery_marker else intercept
        batch = (stage.deliveries(message) if stage is not None
                 else ((message, False),))
        for replacement, forced in batch:
            record = record_for(replacement)
            if record is None:
                continue
            lm = record.record_message(
                replacement, self.allocate_arrival_index(), forced)
            if lm is not None:
                yield lm
                if stage is not None:
                    stage.note_confirmed(lm)

    def processes_on(self, node: int) -> List[ProcessRecord]:
        """Live, recoverable records located on ``node``."""
        return [r for r in self.records.values()
                if r.node == node and not r.destroyed and r.recoverable]

    def live_records(self) -> List[ProcessRecord]:
        return [r for r in self.records.values() if not r.destroyed]
