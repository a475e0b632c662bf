"""The passive recorder (§3.3, §4.5).

"A recording node is attached to the network via a special interface.
The node is in charge of recording all messages on the network and of
initiating and directing all recovery operations."

The recorder's network interface is flagged ``is_recorder``: every
medium model delivers it every frame, and withholds its acknowledgement
(dropping the frame for everyone) when the recorder failed to receive a
message correctly. The transport-level ``tap`` hands each valid frame to
:meth:`Recorder.observe_frame`, which:

* records guaranteed DEMOS messages into the destination process's
  database entry, charging the configured per-message publishing CPU
  cost (§5.2.2: 57 ms full protocol / 12 ms inlined / 0.8 ms media tap);
* tracks each sender's confirmed send prefix (for send suppression);
* buffers message bytes toward 4 KB disk pages (§4.5).

Controls addressed to the recorder node (creation/destruction notices,
checkpoints, read-order advisories, crash reports) update the database;
recovery-oriented replies are routed to the recovery manager.

The database object lives inside :class:`StableStorage`, so it survives
``crash()`` — "the process data base is just a summary of the
information that appears on disk" — while watchdogs and in-flight
recovery activities are volatile and must be rebuilt by the §3.3.4
restart protocol, which the recovery manager drives.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import costs
from repro.demos.ids import MessageId, ProcessId
from repro.demos.messages import (Checkpoint, Message, ProcessCreated,
                                  ProcessDestroyed, ReadOrder, StopPoint)
from repro.errors import ConfigError
from repro.net.frames import Frame
from repro.net.media import Medium
from repro.net.transport import (Segment, Transport, TransportConfig,
                                 guaranteed_body)
from repro.obs import Observability
from repro.publishing.database import (
    CheckpointEntry,
    LoggedMessage,
    ProcessRecord,
    RecorderDatabase,
)
from repro.publishing.disk import DiskArray, PageBuffer
from repro.publishing.stable_storage import StableStorage
from repro.publishing.store import SegmentedLog
from repro.sim.engine import Engine, Signal

#: Database notices (creation, destruction, checkpoint, read order) the
#: passive tap remembers by segment uid, oldest forgotten first: only a
#: retransmission inside this horizon is known to be one.
CONTROL_DEDUP_HORIZON = 8192


@dataclass
class RecorderConfig:
    """Recorder tunables."""

    node_id: int = 99
    #: recorder software path (§5.2.2): full_protocol | inlined | media_tap
    publish_path: str = "media_tap"
    transport: TransportConfig = field(default_factory=TransportConfig)


class Recorder:
    """The publishing recorder node."""

    #: Database-updating control records learned by passive listening,
    #: so every recorder on the medium — not just the addressed one —
    #: keeps a complete database (§6.3 multi-recorder requirement).
    DB_CONTROL_KINDS = (ProcessCreated, ProcessDestroyed, Checkpoint,
                        ReadOrder, StopPoint)
    #: what the passive tap opens a guaranteed segment for
    _HEARD = (Message, *DB_CONTROL_KINDS)

    #: The computed ``recorder.<name>`` gauges, by how each is read off
    #: a recorder. A recorder registers these; a
    #: :class:`~repro.system.System` of several registers their sums
    #: over the same table.
    GAUGES: Dict[str, Callable[["Recorder"], float]] = {
        "log_bytes": lambda r: r.db.log.log_bytes,
        "live_bytes": lambda r: r.db.log.live_bytes,
        "segments": lambda r: r.db.log.segments,
        "compactions": lambda r: r.db.log.compactions,
        "segments_retired": lambda r: r.db.log.segments_retired,
        "disk_busy_ms": lambda r: r.disks.busy_ms,
        "disk_stall_ms": lambda r: r.disks.stall_ms,
        "disk_stall_wait_ms": lambda r: r.disks.stall_wait_ms,
    }

    def __init__(self, engine: Engine, medium: Medium,
                 config: Optional[RecorderConfig] = None,
                 obs: Optional[Observability] = None, *, claim: range):
        self.engine = engine
        self.medium = medium
        self.config = config or RecorderConfig()
        #: instrumentation spine: the System's when given, else the
        #: medium's, so recorder figures share the registry either way
        self.obs = obs if obs is not None else medium.obs
        self.events = self.obs.scope("recorder")
        self.stable = StableStorage(
            RecorderDatabase(SegmentedLog()))
        self.db: RecorderDatabase = self.stable.db
        self.disks = DiskArray(engine)
        # Compaction passes charge their read/write traffic to this
        # recorder's modeled disks (§4.5).
        self.db.log.attach_io(self.disks.submit)
        self.buffer = PageBuffer(self.disks)
        self.up = True
        registry = self.obs.registry
        self.cpu_busy_ms = registry.counter("recorder.cpu_busy_ms")
        self.messages_recorded = registry.counter("recorder.messages_recorded")
        self.duplicates_ignored = registry.counter("recorder.duplicates_ignored")
        for name, read in self.GAUGES.items():
            registry.gauge_fn(f"recorder.{name}", lambda _r=read: _r(self))
        #: control record class -> handler(record, src_node)
        self._control_handlers: Dict[type, Callable[[tuple, int], None]] = {}
        self._arrival_signals: Dict[ProcessId, Signal] = {}
        #: epidemic repair back-reference (publishing.gossip): when set,
        #: the record path feeds the coordinator's gap tracker and
        #: gossip supplies are applied through :meth:`record_repair`.
        self.gossip = None
        #: the node ids whose processes this recorder keeps records of:
        #: its shard's range (:class:`~repro.system.RecorderShard`), the
        #: whole cluster for a lone recorder or a replica. Traffic for
        #: any other node is another shard's or another cluster's, whose
        #: own recorder replays it.
        self.claim = claim
        #: adversary stages (chaos.adversary), in the order armed: every
        #: record this recorder logs — a confirmed delivery or a gossip
        #: repair — passes them in :meth:`RecorderDatabase.deliver`,
        #: which may drop, reorder, duplicate, corrupt or evict it.
        #: Empty: an honest recorder. Recovery markers are exempt — a
        #: marker is the recovery protocol's own traffic.
        self.stages: List[Any] = []
        self._seen_control_uids: "OrderedDict[Tuple, None]" = OrderedDict()
        #: numbers this recorder's control sends; never reset, so a
        #: restarted recorder reuses no uid a receiver may still hold
        self._control_seq = 0
        self._marker_seq = itertools.count(1)
        # Resolved once: the per-message CPU charge is fixed by the
        # configured software path, and record_message is the hottest
        # recorder entry point (every guaranteed frame on the medium).
        try:
            self._publish_cost_ms = costs.PUBLISH_CPU_MS[
                self.config.publish_path]
        except KeyError:
            raise ConfigError(
                f"unknown publish path {self.config.publish_path!r}; "
                f"expected one of {sorted(costs.PUBLISH_CPU_MS)}") from None
        self.transport = Transport(engine, medium, self.config.node_id,
                                   self._on_segment, self.config.transport,
                                   is_recorder=True, tap=self.observe_frame,
                                   obs=self.obs)
        # §4.4.1 ack tracing: the medium tells us when destinations
        # actually receive frames, fixing the log's reception order.
        self.transport.iface.on_delivery = self.observe_delivery
        self._register_builtin_handlers()

    # ------------------------------------------------------------------
    # passive listening
    # ------------------------------------------------------------------
    def observe_frame(self, frame: Frame) -> None:
        """Passive listening: record every guaranteed DEMOS message heard
        on the medium, and absorb every database-updating control notice
        regardless of which recorder it was addressed to."""
        if not self.up:
            return
        body = guaranteed_body(frame, self._HEARD)
        if isinstance(body, Message):
            self.record_message(body)
        elif body is not None:
            # The tap fires before transport dedup, so retransmitted
            # notices must be filtered here (a duplicate read_order
            # advisory would corrupt the consumption simulation). A
            # segment uid is unique per send and shared by its
            # retransmissions.
            key = frame.payload.uid
            if key in self._seen_control_uids:
                return
            self._seen_control_uids[key] = None
            while len(self._seen_control_uids) > CONTROL_DEDUP_HORIZON:
                self._seen_control_uids.popitem(last=False)
            if body.pid.node not in self.claim:
                return   # another shard's notice, that shard absorbs it
            self._control_handlers[type(body)](body, frame.src_node)

    def _admit(self, message: Message) -> Optional[ProcessRecord]:
        """What hearing a message costs, whichever way it was heard:
        the publishing CPU charge. Returns the destination's database
        entry — created if no notice announced it yet — or None when the
        message is not this recorder's to store."""
        self.cpu_busy_ms.inc(self._publish_cost_ms)
        if message.dst.node not in self.claim:
            return None    # another shard's or another cluster's
        record = self.db.get(message.dst)
        if record is None:
            # Message overheard before (or without) a creation notice —
            # keep it anyway; the notice will fill in the metadata.
            record = self.db.create(message.dst, node=message.dst.node, image="")
        if not record.recoverable:
            return None    # §6.6.1: not published, not recovered
        return record

    def record_message(self, message: Message) -> None:
        """Stage one overheard message: database entry, CPU cost, disk
        bytes. The message joins the replay log when its delivery is
        observed (:meth:`observe_delivery`), in reception order."""
        if self.gossip is not None:
            self.gossip.note_recorded(message)
        record = self._admit(message)
        if record is None:
            return
        if not record.stage_message(message):
            self.duplicates_ignored.inc()
            return
        self.buffer.add(message.size_bytes)

    def observe_delivery(self, frame: Frame) -> None:
        """§4.4.1: the destination received this frame — append the
        staged message to the replay log and credit the sender's
        delivery-confirmed prefix."""
        if not self.up:
            return
        message = guaranteed_body(frame, Message)
        if message is None:
            return
        for lm in self.db.deliver(message, self._delivery_record,
                                  self.stages):
            self._logged(lm, "publish")

    def _delivery_record(self, message: Message) -> Optional[ProcessRecord]:
        """The entry a confirmed delivery of ``message`` appends to, or
        None when this recorder does not log it."""
        if message.dst.node not in self.claim:
            # Not this recorder's destination — but the delivery still
            # confirms the *sender's* send, and the sender's record may
            # live here (a message to another shard, or one a gateway
            # took for another cluster); the confirmed prefix is the
            # send-suppression horizon and must advance here too.
            sender = self.db.get(message.src)
            if sender is not None:
                sender.note_send_confirmed(message.msg_id.seq)
            return None
        record = self.db.get(message.dst)
        if record is None or not record.recoverable:
            return None
        return record

    def _logged(self, lm: LoggedMessage, event: str) -> None:
        """A message joined the replay log (``event``: ``publish`` for
        an observed delivery, ``repair`` for a gossip supply): count it,
        credit the sender's confirmed prefix, wake a recovery waiting on
        the destination's arrivals."""
        message = lm.message
        self.messages_recorded.inc()
        sender = self.db.get(message.src)
        if sender is not None:
            sender.note_send_confirmed(message.msg_id.seq)
        self.events.emit(event, message.dst, msg=message.msg_id)
        signal = self._arrival_signals.get(message.dst)
        if signal is not None:
            signal.fire(message.msg_id)

    def arrival_signal(self, pid: ProcessId) -> Signal:
        """A signal fired whenever a new message for ``pid`` is recorded
        (recovery processes wait on this while catching up)."""
        if pid not in self._arrival_signals:
            self._arrival_signals[pid] = self.engine.signal(f"arrivals/{pid}")
        return self._arrival_signals[pid]

    def record_repair(self, message: Message) -> bool:
        """Apply one gossip-supplied message as if it had been heard
        *and* its delivery observed: the broadcast delivered it to its
        destination while the recorder's copy was lost, so the supply
        closes the log hole in one step.

        Repaired messages append at the end of the log — after
        everything that arrived while they were missing — so replay
        interleave differs from true reception order while the
        per-process recorded set converges (docs/GOSSIP.md). They enter
        the log through the same door as an observed delivery, so the
        armed adversary stages see them too. Returns whether anything
        was logged.
        """
        if not self.up or message.recovery_marker:
            return False
        record = self._admit(message)
        if record is None:
            return False
        if message.msg_id in record.recorded_ids:
            self.duplicates_ignored.inc()
            return False
        repaired = False
        for lm in self.db.deliver(message, self._delivery_record,
                                  self.stages):
            self.buffer.add(lm.message.size_bytes)
            self._logged(lm, "repair")
            repaired = True
        return repaired

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _on_segment(self, segment: Segment) -> None:
        if not self.up:
            return
        kind = type(segment.body)
        if kind in self.DB_CONTROL_KINDS:
            return   # already absorbed via the passive tap
        handler = self._control_handlers.get(kind)
        if handler is not None:
            handler(segment.body, segment.src_node)

    def on_control(self, kind: type,
                   handler: Callable[[tuple, int], None]) -> None:
        """Register a handler for a control record class (recovery
        manager etc.)."""
        self._control_handlers[kind] = handler

    def _register_builtin_handlers(self) -> None:
        self.on_control(ProcessCreated, self._on_process_created)
        self.on_control(ProcessDestroyed, self._on_process_destroyed)
        self.on_control(Checkpoint, self._on_checkpoint)
        self.on_control(ReadOrder, self._on_read_order)
        self.on_control(StopPoint, self._on_stop_point)

    def _on_process_created(self, control: ProcessCreated,
                            src_node: int) -> None:
        pid = control.pid
        self.db.create(pid, node=control.node, image=control.image,
                       args=control.args,
                       initial_links=control.initial_links,
                       recoverable=control.recoverable,
                       state_pages=control.state_pages)
        self.events.emit("recorder", pid, event="created_notice")

    def _on_process_destroyed(self, control: ProcessDestroyed,
                              src_node: int) -> None:
        pid = control.pid
        record = self.db.get(pid)
        if record is None:
            return
        record.destroyed = True
        record.recovery_epoch += 1        # cancels any in-flight recovery
        # "When the process is terminated, all messages queued for it are
        # also discarded" — and so is its published history.
        record.invalidate_all()
        self.events.emit("recorder", pid, event="destroyed_notice")

    def _on_checkpoint(self, control: Checkpoint, src_node: int) -> None:
        record = self.db.get(control.pid)
        if record is None or record.destroyed:
            return
        entry = CheckpointEntry(
            data=control.data,
            consumed=control.consumed,
            dtk_processed=control.dtk_processed,
            send_seq=control.send_seq,
            pages=control.pages,
            stored_at=self.engine.now,
        )
        size_bytes = entry.pages * costs.CHECKPOINT_PAGE_BYTES
        # Only after the checkpoint "has been reliably stored" may older
        # messages be discarded (§3.3.1).
        self.disks.submit("write", size_bytes,
                          on_done=lambda: self._checkpoint_stored(record, entry))

    def _checkpoint_stored(self, record: ProcessRecord, entry: CheckpointEntry) -> None:
        if not self.up or record.destroyed:
            return
        invalidated = record.apply_checkpoint(entry)
        self.events.emit("recorder", record.pid, event="checkpoint_stored",
                         invalidated=invalidated)

    def _on_read_order(self, control: ReadOrder, src_node: int) -> None:
        record = self.db.get(control.pid)
        if record is None or control.head is None:
            return
        record.add_advisory(control.read, control.head)

    def _on_stop_point(self, control: StopPoint, src_node: int) -> None:
        record = self.db.get(control.pid)
        if record is not None:
            record.stop_points[control.stop] = control.consumed

    # ------------------------------------------------------------------
    # messaging helpers for the recovery side
    # ------------------------------------------------------------------
    def send_control(self, dst_node: int, control: tuple,
                     guaranteed: bool = True, size_bytes: int = 64) -> None:
        """Send a control datagram from the recorder node."""
        self._control_seq += 1
        self.transport.send(dst_node, control, size_bytes=size_bytes,
                            uid=("rec", self.config.node_id, self._control_seq),
                            guaranteed=guaranteed)

    def make_marker(self, pid: ProcessId, epoch: int) -> Message:
        """Build the recovery hand-back marker for ``pid`` — an ordinary
        published message whose position in the log marks the point after
        which the recovering node holds live traffic. The epoch lets the
        target kernel ignore markers from superseded recoveries (§3.5)."""
        seq = next(self._marker_seq)
        recorder_pid = ProcessId(self.config.node_id, 0)
        return Message(msg_id=MessageId(recorder_pid, seq),
                       src=recorder_pid, dst=pid, channel=0, code=0,
                       body=("recovery_marker", epoch), size_bytes=32,
                       recovery_marker=True)

    def send_marker(self, marker: Message) -> None:
        """Broadcast the marker like any published message."""
        self.transport.send(marker.dst.node, marker,
                            size_bytes=marker.size_bytes,
                            uid=tuple(marker.msg_id))

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """The recorder fails. Stable storage (database, logs written to
        disk) survives; everything volatile — including any partially
        filled page buffer — is lost, and "all message traffic to
        processes must be suspended" — the medium stops acknowledging."""
        self.up = False
        lost = self.buffer.crash()
        self.transport.crash()
        self._arrival_signals.clear()
        self.events.emit("crash", "recorder", buffer_bytes_lost=lost)

    def restart(self) -> "int":
        """Power back up; returns the new restart number (§3.4). The
        recovery manager must then run the §3.3.4 state-query protocol."""
        restart_number = self.stable.begin_restart()
        self.up = True
        self.transport.restart()
        self.events.emit("restart", "recorder", restart_number=restart_number)
        return restart_number
