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
  carried in the checkpoint control let :class:`ProcessRecord`
  re-simulate the process's queue: non-advised receives take the queue
  head; an advisory ``(read, head)`` fires when its recorded head
  matches the simulated head. The first ``consumed`` messages it
  consumes are invalid — checkpointed state already reflects them —
  whether the checkpoint or the record reached the recorder second.
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
:attr:`~ProcessRecord.arrivals` and :class:`ReplayCursor` are reads
of it, each O(records replayed).
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
from typing import (Any, Callable, Deque, Dict, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from repro.demos.ids import MessageId, ProcessId
from repro.demos.links import Link
from repro.demos.messages import Message
from repro.errors import RecordCorruptionError, RecorderError
from repro.publishing.store import SegmentedLog, payload_digest


class LoggedMessage:
    """One published message in a process's stream.

    Lives in its :class:`ProcessRecord`'s view, numbered and accounted
    for by the :class:`~repro.publishing.store.SegmentedLog`; flipping
    :attr:`invalid` routes through the owning record so the log's
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
    #: (read_id, head_id) pairs in the temporal order they were reported;
    #: each retires once the re-simulation matches it, so only reads the
    #: checkpoints do not cover yet are held
    advisories: Deque[Tuple[MessageId, MessageId]] = field(
        default_factory=deque)
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
    # below is one pass over them.
    _live: List[LoggedMessage] = field(default_factory=list, init=False,
                                       repr=False, compare=False)
    _live_dead: int = field(default=0, init=False, repr=False, compare=False)

    # -- checkpoint coverage (§4.4.2), see _cover ------------------------
    # One rule, whichever of a record and its checkpoint arrives second:
    # the covered counts are the largest `consumed` / `dtk_processed`
    # any checkpoint has named. `_sim_queue` holds the queue messages the
    # re-simulation has not consumed yet and `_controls` the controls
    # not yet walked, both in arrival order (markers enter neither).
    _sim_queue: Deque[LoggedMessage] = field(
        default_factory=deque, init=False, repr=False, compare=False)
    _consumed: int = field(default=0, init=False, repr=False, compare=False)
    _covered_consumed: int = field(default=0, init=False, repr=False,
                                   compare=False)
    _controls: Deque[LoggedMessage] = field(
        default_factory=deque, init=False, repr=False, compare=False)
    _controls_walked: int = field(default=0, init=False, repr=False,
                                  compare=False)
    _covered_controls: int = field(default=0, init=False, repr=False,
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
        return the logged record — None for a duplicate. A record that a
        stored checkpoint already covers comes back invalid.

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
        if lm.is_control:
            self._controls.append(lm)
        elif not lm.is_marker:
            self._sim_queue.append(lm)
        if (self._consumed < self._covered_consumed
                or self._controls_walked < self._covered_controls):
            self._cover()      # logged after a checkpoint that may cover it
        return lm

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
        destruction, or a direct flip): keep the segment GC in step,
        and prune the view once half of it is dead (amortized O(1) per
        invalidation)."""
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
    def _cover(self) -> int:
        """Walk the queue re-simulation and the control stream up to the
        covered counts, invalidating each record as it is passed; returns
        how many were newly invalidated. A non-advised receive takes the
        queue head; an advisory ``(read, head)`` fires, and retires, when
        its head is the simulated head. The walk stops at an advisory
        whose read is not logged yet and resumes when it arrives."""
        invalidated = 0
        queue = self._sim_queue
        advisories = self.advisories
        while self._consumed < self._covered_consumed and queue:
            if advisories and advisories[0][1] == queue[0].message.msg_id:
                read_id = advisories[0][0]
                for index, lm in enumerate(queue):
                    if lm.message.msg_id == read_id:
                        del queue[index]
                        break
                else:
                    break
                advisories.popleft()
            else:
                lm = queue.popleft()
            self._consumed += 1
            if not lm._invalid:
                lm.invalid = True
                invalidated += 1
        controls = self._controls
        while self._controls_walked < self._covered_controls and controls:
            lm = controls.popleft()
            self._controls_walked += 1
            if not lm._invalid:
                lm.invalid = True
                invalidated += 1
        return invalidated

    def apply_checkpoint(self, entry: CheckpointEntry) -> int:
        """Install a new checkpoint and invalidate the messages its state
        already reflects. Returns how many messages were invalidated —
        "after the checkpoint has been reliably stored, older checkpoints
        and messages can be discarded" (§3.3.1).

        Checkpoint counts are cumulative, so each pass walks only what
        the larger count newly covers, and invalidation feeds the
        segment GC, which retires fully-dead segments and compacts
        mostly-dead ones (§4.5). An advisory whose read is not logged
        raises :class:`~repro.errors.RecorderError` here, and again on
        every retry, until the read arrives.
        """
        self.checkpoint = entry
        self._covered_consumed = max(self._covered_consumed, entry.consumed)
        self._covered_controls = max(self._covered_controls,
                                     entry.dtk_processed)
        invalidated = self._cover()
        if self._consumed < self._covered_consumed and self._sim_queue:
            raise RecorderError(f"advisory for {self.advisories[0][0]} "
                                f"does not match the log of {self.pid}")
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
        """Stored bytes still needed for recovery (storage accounting):
        one pass over the view, like every read of it."""
        return sum(lm.message.size_bytes for lm in self._live
                   if not lm._invalid)


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
        """Register a process from its creation notice; idempotent. A
        placeholder (``image`` "", made from traffic heard before any
        notice) takes the notice's metadata and keeps its log."""
        existing = self.records.get(pid)
        if existing is not None and not existing.destroyed:
            if existing.image == "":
                existing.node, existing.image = node, image
                existing.args = tuple(args)
                existing.initial_links = tuple(initial_links)
                existing.recoverable = recoverable
                existing.state_pages = state_pages
            return existing
        record = ProcessRecord(pid=pid, node=node, image=image, args=tuple(args),
                               initial_links=tuple(initial_links),
                               recoverable=recoverable, state_pages=state_pages,
                               log=self.log)
        self.records[pid] = record
        return record

    def get(self, pid: ProcessId) -> Optional[ProcessRecord]:
        return self.records.get(pid)

    def allocate_arrival_index(self) -> int:
        index = self.next_arrival_index
        self.next_arrival_index += 1
        return index

    def deliver(self, message: Message,
                record_for: Callable[[Message], Optional[ProcessRecord]],
                stages: Sequence[Any] = ()) -> Iterator[LoggedMessage]:
        """The one way a record enters the log — a confirmed delivery
        or a gossip repair alike.

        With no ``stages`` (or for a recovery marker — the recovery
        protocol's own traffic, never tampered with) the message is
        recorded as it is. Otherwise each adversary stage in turn
        decides what is logged in place of what the previous one
        passed on: nothing, a rewritten copy, the message twice, or a
        message it held back from an *earlier* delivery — possibly
        another process's, which is why ``record_for`` is asked per
        logged message, not once. ``record_for`` returns the record to
        append to, or None to leave the message out.

        Yields each record appended; the stages' ``note_confirmed``
        (where ``bitrot`` mangles the stored copy, and a bounded buffer
        evicts) runs, in stage order, when the caller comes back for
        the next, i.e. after it has announced this one.
        """
        if message.recovery_marker:
            stages = ()
        batch = ((message, False),)
        for stage in stages:
            batch = tuple((replacement, forced or extra)
                          for passed, forced in batch
                          for replacement, extra in stage.deliveries(passed))
        for replacement, forced in batch:
            record = record_for(replacement)
            if record is None:
                continue
            lm = record.record_message(
                replacement, self.allocate_arrival_index(), forced)
            if lm is not None:
                yield lm
                for stage in stages:
                    stage.note_confirmed(lm)

    def processes_on(self, node: int) -> List[ProcessRecord]:
        """Live, recoverable records located on ``node``."""
        return [r for r in self.records.values()
                if r.node == node and not r.destroyed and r.recoverable]

    def live_records(self) -> List[ProcessRecord]:
        return [r for r in self.records.values() if not r.destroyed]
