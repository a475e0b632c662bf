"""The recovery manager and recovery processes (§3.3.3, §4.7).

"The main element is the recovery manager, which resides on the
recovery node and is in charge of all recovery operations. ... When the
recovery manager receives notification of a crash, it starts up a
recovery process for each crashed process."

Each recovery process is a simulation activity that:

1. reads the last checkpoint from the publishing disk (if any);
2. sends the recreate request to the target node — the process comes up
   in the recovering state with send suppression configured;
3. streams the valid published messages to the node in arrival order
   (replayed process-control traffic included, §4.4.3);
4. when it reaches the end of the log, broadcasts a **marker** — an
   ordinary published message to the recovering pid. The target kernel
   discards live traffic arriving before the marker (it is in the log
   and will be replayed) and holds live traffic arriving after it;
5. keeps replaying newly recorded messages until the marker itself
   appears in the log — at that point everything the process ever
   received has been replayed — and sends ``recovery_done``, flipping
   the process live. This is the "catch up" of §3.2.1.

Recursive crashes (§3.5) are handled with a per-record epoch: starting a
new recovery bumps the epoch and strands any older recovery process.

The manager also drives the recorder restart protocol (§3.3.4): state
queries stamped with the stable restart number, stale replies discarded
(§3.4), and per-reported-state actions (functioning / crashed /
recovering / unknown).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import costs
from repro.demos.ids import ProcessId
from repro.demos.messages import (AliveReply, ProcessCrashed, Recreate,
                                  RecoveryDone, Replay, StateQuery,
                                  StateReply)
from repro.errors import RecordCorruptionError
from repro.publishing.database import ProcessRecord
from repro.publishing.recorder import Recorder
from repro.publishing.watchdog import Watchdog
from repro.sim.engine import Engine


@dataclass
class RecoveryStats:
    """Counters for tests and benches.

    Kept as a plain per-manager dataclass (multi-recorder configurations
    run one manager per recorder and compare them individually); the
    fields are mirrored into the shared metrics registry as ``recovery.*``
    gauges.
    """

    recoveries_started: int = 0
    recoveries_completed: int = 0
    messages_replayed: int = 0
    node_crashes_detected: int = 0
    process_crash_reports: int = 0
    stale_state_replies: int = 0
    corrupt_records_skipped: int = 0

    FIELDS = ("recoveries_started", "recoveries_completed",
              "messages_replayed", "node_crashes_detected",
              "process_crash_reports", "stale_state_replies",
              "corrupt_records_skipped")


class RecoveryManager:
    """Directs all recovery operations from the recording node."""

    def __init__(self, engine: Engine, recorder: Recorder,
                 node_ids: List[int]):
        self.engine = engine
        self.recorder = recorder
        self.node_ids = list(node_ids)
        self.watchdogs: Dict[int, Watchdog] = {}
        self.stats = RecoveryStats()
        self.obs = recorder.obs
        self.events = self.obs.scope("recovery")
        for name in RecoveryStats.FIELDS:
            self.obs.registry.gauge_fn(
                f"recovery.{name}",
                (lambda s=self.stats, n=name: getattr(s, n)))
        #: hook invoked when a node crash is detected; the environment
        #: (System) restarts the node or brings in a spare. The recreate
        #: traffic retries until the node answers, so no handshake is
        #: needed here.
        self.node_restarter: Optional[Callable[[int], None]] = None
        #: §6.3 coordinator; None for the single-recorder configuration
        self.coordinator = None
        #: epidemic repair coordinator (publishing.gossip); when set, a
        #: recovery whose log has known holes waits for the pull rounds
        #: to converge before streaming the replay
        self.gossip = None
        self._completion_signals: Dict[ProcessId, object] = {}
        recorder.on_control(AliveReply, self._on_alive_reply)
        recorder.on_control(ProcessCrashed, self._on_process_crashed)
        recorder.on_control(StateReply, self._on_state_reply)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm a watchdog for every processing node."""
        for node_id in self.node_ids:
            self._arm_watchdog(node_id)

    def _arm_watchdog(self, node_id: int) -> None:
        dog = Watchdog(
            self.engine, node_id,
            send_ping=lambda n, c: self.recorder.send_control(n, c, guaranteed=False),
            on_crash=self._on_node_silent,
            obs=self.obs,
        )
        self.watchdogs[node_id] = dog
        dog.start()

    def stop(self) -> None:
        for dog in self.watchdogs.values():
            dog.stop()
        self.watchdogs.clear()

    # ------------------------------------------------------------------
    # crash notifications
    # ------------------------------------------------------------------
    def _on_alive_reply(self, control: AliveReply, src_node: int) -> None:
        dog = self.watchdogs.get(control.node)
        if dog is not None:
            dog.note_reply(control)

    def _on_process_crashed(self, control: ProcessCrashed,
                            src_node: int) -> None:
        """A node kernel trapped a single-process fault (§3.3.2)."""
        self.stats.process_crash_reports += 1
        record = self.recorder.db.get(control.pid)
        if record is not None:
            self.start_recovery(record)

    def _on_node_silent(self, node_id: int) -> None:
        """The watchdog timed out: treat as a crash of every process on
        the node (§1.1.2)."""
        self.stats.node_crashes_detected += 1
        self.events.emit("watchdog", f"node{node_id}", event="silent")
        if self.coordinator is not None and not self.coordinator.claim(node_id):
            return   # a higher-priority recorder is handling it (§6.3)
        self.recover_node(node_id)

    def recover_node(self, node_id: int) -> int:
        """Restart the node and recover every process it hosted.

        Returns the number of recoveries started.
        """
        if self.node_restarter is not None:
            self.node_restarter(node_id)
        started = 0
        for record in self.recorder.db.processes_on(node_id):
            if self.start_recovery(record):
                started += 1
        dog = self.watchdogs.get(node_id)
        if dog is not None:
            dog.reset()
        return started

    # ------------------------------------------------------------------
    # the recovery process
    # ------------------------------------------------------------------
    def start_recovery(self, record: ProcessRecord) -> bool:
        """Spawn a recovery process for one crashed process (§4.7), on
        the node its record names.

        Starting a recovery for an already-recovering process (a
        recursive crash, §3.5) strands the older recovery process via
        the epoch bump and begins afresh.

        A process recovers onto a node with its pid's node id (the
        thesis's spare processors "assume the identities of failed
        processors"; see ``System.spare_takeover``). Recovering onto a
        node with a *different* id would need the process-migration
        routing of [Powell & Miller 83], which the thesis defers to
        future work (§7.1) and so do we: message routing is by the
        pid's birth node.
        """
        if record.destroyed or not record.recoverable or record.image == "":
            return False
        record.recovery_epoch += 1
        record.recovering = True
        self.stats.recoveries_started += 1
        self.engine.spawn(self._recovery_process(record, record.recovery_epoch))
        return True

    def completion_signal(self, pid: ProcessId):
        """A signal fired when recovery for ``pid`` completes."""
        if pid not in self._completion_signals:
            self._completion_signals[pid] = self.engine.signal(f"recovered/{pid}")
        return self._completion_signals[pid]

    def _superseded(self, record: ProcessRecord, epoch: int) -> bool:
        return (not self.recorder.up or record.destroyed
                or epoch != record.recovery_epoch)

    def _recovery_process(self, record: ProcessRecord, epoch: int):
        rec = self.recorder
        engine = self.engine
        pid = record.pid
        node = record.node

        # 1. Read the checkpoint from the publishing disk.
        checkpoint_data = None
        # Suppress regenerated sends only up to the contiguous
        # delivery-confirmed prefix: a recorded-but-undelivered message
        # must be re-sent by the recovered process (receivers and the
        # recorder deduplicate any that do arrive twice).
        suppress = record.confirmed_prefix
        page_bytes = costs.CHECKPOINT_PAGE_BYTES
        if record.checkpoint is not None:
            entry = record.checkpoint
            done_at = rec.disks.submit("read", entry.pages * page_bytes)
            if done_at > engine.now:
                yield done_at - engine.now
            if self._superseded(record, epoch):
                return
            checkpoint_data = entry.data

        # 2. Recreate the process in the recovering state.
        rec.send_control(node, Recreate(
            pid, record.image, record.args, record.initial_links,
            checkpoint_data, suppress, record.recoverable,
            record.state_pages, epoch, tuple(record.stop_points.values())),
            size_bytes=max(64, (record.checkpoint.pages * page_bytes
                                if record.checkpoint else 64)))

        # 2.5 Epidemic repair: if the gossip layer knows of log holes
        # (sequence gaps the recorder never heard — e.g. a recorder
        # outage during a traffic window), wait for the pull rounds to
        # close or abandon them before streaming the replay, so the
        # recovered process also sees messages the recorder itself
        # missed. The wait is bounded by max_retries gossip rounds.
        if self.gossip is not None and self.gossip.outstanding_count():
            self.events.emit("recovery", pid, event="gossip_repair_wait",
                             holes=self.gossip.outstanding_count())
            yield self.gossip.request_urgent()
            if self._superseded(record, epoch):
                return

        # 3-5. Stream the log; mark; catch up. The cursor walks the
        # per-process index from the first valid record — O(records
        # replayed), not O(log length) — and keeps yielding fresh
        # arrivals appended while this recovery catches up. With a
        # quorum ensemble attached, the cursor votes across every live
        # recorder's stream instead of trusting this log alone; either
        # way reads are checksum-verified, and a corrupt record is
        # counted and skipped rather than replayed mangled.
        quorum = getattr(self.coordinator, "quorum", None) \
            if self.coordinator is not None else None
        if quorum is not None:
            cursor = quorum.cursor(rec, record, epoch)
        else:
            cursor = record.replay_cursor(verify=True)
        replayed = 0
        marker = None
        while True:
            if self._superseded(record, epoch):
                return
            try:
                logged = cursor.next()
            except RecordCorruptionError as exc:
                self.stats.corrupt_records_skipped += 1
                self.events.emit("recovery", pid,
                                 event="corrupt_record", error=str(exc))
                continue
            if logged is not None:
                message = logged.message
                if marker is not None and message.msg_id == marker.msg_id:
                    break              # our marker: fully caught up
                if logged.invalid or logged.is_marker:
                    continue           # pre-checkpoint, or a stale marker
                done_at = rec.disks.submit("read", message.size_bytes)
                if done_at > engine.now:
                    yield done_at - engine.now
                if self._superseded(record, epoch):
                    return
                rec.send_control(node, Replay(message, epoch),
                                 size_bytes=message.size_bytes)
                self.stats.messages_replayed += 1
                replayed += 1
            else:
                if marker is None:
                    marker = rec.make_marker(pid, epoch)
                    rec.send_marker(marker)
                yield rec.arrival_signal(pid)

        rec.send_control(node, RecoveryDone(pid, epoch))
        record.recovering = False
        self.stats.recoveries_completed += 1
        self.events.emit("recovery", pid, event="complete",
                         replayed=replayed)
        signal = self._completion_signals.get(pid)
        if signal is not None:
            signal.fire(pid)

    # ------------------------------------------------------------------
    # recorder restart protocol (§3.3.4, §3.4)
    # ------------------------------------------------------------------
    def restart_recorder(self) -> int:
        """Bring a crashed recorder back and reconcile with the nodes.

        Returns the new restart number.
        """
        restart_number = self.recorder.restart()
        # Strand any recovery processes from before the crash; the state
        # replies will restart the ones still needed.
        for record in self.recorder.db.live_records():
            record.recovery_epoch += 1
        self.stop()
        for node_id in self.node_ids:
            self._arm_watchdog(node_id)
        for node_id in self.node_ids:
            self.recorder.send_control(node_id, StateQuery(restart_number))
        return restart_number

    def _on_state_reply(self, control: StateReply, src_node: int) -> None:
        # §3.4: "All state responses containing different numbers are
        # ignored."
        if control.restart_number != self.recorder.stable.restart_number:
            self.stats.stale_state_replies += 1
            return
        for record in self.recorder.db.processes_on(src_node):
            reported = control.states.get(record.pid, "unknown")
            if reported in ("running", "stopped"):
                record.recovering = False
                continue                       # functioning: no action
            # crashed / recovering / unknown all restart recovery; the
            # recreate request destroys any half-recovered instance.
            self.start_recovery(record)
