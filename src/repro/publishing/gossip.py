"""Epidemic repair: gossip-assisted recording and pull-based recovery.

The paper's recorder is purely passive (§3.3): it overhears the medium
and, when it misses a frame, the only repair path is the *sender's*
retransmission. A hole in the recorder's log — a lossy reception, a
stalled disk page, a crash window — is unrecoverable at replay time.

This module layers the push-phase/pull-backup shape of probabilistic
broadcast on top of the passive design:

* every node keeps a :class:`GossipBuffer` — a bounded ring of the
  messages it recently saw published on the medium (the "push phase"
  is the broadcast itself; the buffer is the lazy retention that makes
  a pull backup possible);
* the recorder tracks per-sender sequence frontiers and flags gaps
  (:class:`GapTracker`); in periodic gossip rounds the
  :class:`GossipCoordinator` pulls flagged message ids from a bounded
  fanout of peer buffers, with bounded per-id retries;
* each round also sweeps the peers' buffered-id advertisements against
  the recorder's database, so a *tail* loss (a sender's last message,
  after which no later sequence ever arrives to betray the gap) is
  still detected and repaired;
* a recovering process whose recorder log has known holes waits — via
  :meth:`GossipCoordinator.request_urgent` — for the repair rounds to
  converge before its replay streams the log, so recovery succeeds
  digest-identically even when the recorder was down during a traffic
  window.

Convergence contract (see docs/GOSSIP.md): repaired messages append to
the log at a fresh arrival index, *after* messages that arrived while
they were missing. Replay interleave therefore differs from the
original reception order; what converges is the per-process recorded
**set**. Exact-state recovery holds for commutative workloads (and any
workload when no post-repair checkpoint froze a consumed-count over
the reordered suffix) — the differential tests pin the set digests.

All randomness (loss draws, fanout peer sampling) comes from the named
streams ``gossip/loss`` and ``gossip/fanout`` so runs stay seed-pure:
two runs of the same seed produce byte-identical event streams, which
is what lets CI verify the repair path with ``--verify-determinism``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.demos.ids import MessageId, ProcessId
from repro.demos.messages import Control, Message
from repro.net.frames import Frame
from repro.net.transport import guaranteed_body

__all__ = [
    "GossipConfig",
    "GossipBuffer",
    "GapTracker",
    "ReceptionLoss",
    "GossipCoordinator",
    "pull_ranges",
]


def pull_ranges(msg_ids: List[MessageId]) -> List[tuple]:
    """Compress an ascending msg-id batch into per-sender contiguous
    ``((node, local), lo, hi)`` half-open sequence ranges — the pull
    request's wire format. A range costs 12 bytes against 8 per
    explicit id, and the common hole shape is exactly a run: a recorder
    outage clips a contiguous swath of every active sender's stream, so
    a request that once carried one entry per missing id now carries
    one entry per sender per outage window."""
    runs: List[List] = []
    for mid in msg_ids:
        sender = (mid.sender.node, mid.sender.local)
        if runs and runs[-1][0] == sender and runs[-1][2] == mid.seq:
            runs[-1][2] = mid.seq + 1
        else:
            runs.append([sender, mid.seq, mid.seq + 1])
    return [(sender, lo, hi) for sender, lo, hi in runs]


#: peers pulled from per round
FANOUT = 2
#: ids packed into one pull control
PULL_BATCH = 32


@dataclass
class GossipConfig:
    """Tunables for the epidemic repair layer."""

    #: messages retained per node buffer (bounded model: eviction is
    #: FIFO by first sighting, so a too-small buffer loses repair
    #: coverage — the reliability-vs-overhead frontier's second axis)
    buffer_depth: int = 256
    #: gossip round period
    round_ms: float = 150.0
    #: rounds a missing id may be attempted before it is abandoned
    max_retries: int = 8


class GossipBuffer:
    """A bounded ring of recently published messages, keyed by msg_id.

    Re-sighting a buffered id refreshes its position (retransmissions
    keep hot messages resident); eviction is oldest-first. The ids
    sighted since the last :meth:`take_sightings` are kept a second
    time, in the same order and under the same bound — they are the
    ring's tail, which is all a gossip round has to read.
    """

    def __init__(self, depth: int):
        self.depth = depth
        self._ring: "OrderedDict[MessageId, Message]" = OrderedDict()
        self._sighted: "OrderedDict[MessageId, Message]" = OrderedDict()

    def note(self, message: Message) -> None:
        key = message.msg_id
        for ring in (self._ring, self._sighted):
            if key in ring:
                ring.move_to_end(key)
            else:
                ring[key] = message
                if len(ring) > self.depth:
                    ring.popitem(last=False)

    def get(self, msg_id: MessageId) -> Optional[Message]:
        return self._ring.get(msg_id)

    def take_sightings(self) -> "OrderedDict[MessageId, Message]":
        """Hand over, and forget, what was sighted — for the first time
        or again — since the previous call: still-buffered messages
        only, least recently sighted first (the ring's own order)."""
        sighted, self._sighted = self._sighted, OrderedDict()
        return sighted

    def clear(self) -> None:
        """A node crash loses its volatile buffer."""
        self._ring.clear()
        self._sighted.clear()

    def __len__(self) -> int:
        return len(self._ring)


class GapTracker:
    """Per-sender sequence frontiers and the set of flagged holes.

    The tracker lives in the coordinator, not the recorder, so it
    survives a recorder crash: the first message recorded after the
    restart jumps the sender's frontier across the outage window and
    flags everything in between.
    """

    def __init__(self) -> None:
        self.frontier: Dict[ProcessId, int] = {}
        self.missing: Dict[MessageId, int] = {}   # id -> pull attempts
        self.gave_up: Set[MessageId] = set()

    def note_recorded(self, msg_id: MessageId) -> List[MessageId]:
        """The recorder now knows ``msg_id``: resolve it if it was
        flagged, advance the sender's frontier, and return any newly
        flagged holes the jump exposed."""
        sender, seq = msg_id
        fresh: List[MessageId] = []
        top = self.frontier.get(sender, 0)
        if seq > top:
            for missed in range(top + 1, seq):
                hole = MessageId(sender, missed)
                if self.flag(hole):
                    fresh.append(hole)
            self.frontier[sender] = seq
        self.missing.pop(msg_id, None)
        return fresh

    def flag(self, msg_id: MessageId) -> bool:
        """Mark one id missing; False if already tracked or abandoned."""
        if msg_id in self.gave_up or msg_id in self.missing:
            return False
        self.missing[msg_id] = 0
        return True

    def resolve(self, msg_id: MessageId) -> bool:
        return self.missing.pop(msg_id, None) is not None

    def abandon(self, msg_id: MessageId) -> None:
        self.missing.pop(msg_id, None)
        self.gave_up.add(msg_id)

    def outstanding(self) -> List[MessageId]:
        """Flagged holes, oldest sender/sequence first (deterministic)."""
        return sorted(self.missing)


class ReceptionLoss:
    """Seed-pure loss on the recording/repair path.

    ``lose_reception`` is installed as the medium's ``recorder_loss``
    hook: a hit means the published frame never reached any recorder
    interface (the broadcast itself still lands — receivers are
    unaffected). ``lose_control`` is drawn by the coordinator for pull
    and supply datagrams. Both draw from the ``gossip/loss`` stream
    only while ``rate > 0``, so a zero-rate system makes no draws and
    legacy seeds stay byte-identical.
    """

    def __init__(self, rng, rate: float, registry) -> None:
        self._rng = rng
        self.rate = rate
        self._receptions_dropped = registry.counter(
            "gossip.receptions_dropped")

    def set_rate(self, rate: float) -> None:
        self.rate = rate

    def lose_reception(self, frame: Frame) -> bool:
        if self.rate <= 0.0:
            return False
        body = guaranteed_body(frame, Message)
        if body is None or body.recovery_marker:
            return False
        if self._rng.random() < self.rate:
            self._receptions_dropped.inc()
            return True
        return False

    def lose_control(self) -> bool:
        if self.rate <= 0.0:
            return False
        return self._rng.random() < self.rate


class GossipCoordinator:
    """Drives buffers, gap detection, and periodic pull rounds.

    One coordinator per :class:`~repro.system.System`. It owns the
    node buffers' feed (the medium's ``gossip_tap``), the recorder's
    gap tracker, and the round generator; the recorder and recovery
    manager hold back-references (``recorder.gossip``,
    ``recovery.gossip``) so the record path notes frontiers and the
    replay path can wait for convergence.
    """

    def __init__(self, system, config: Optional[GossipConfig] = None):
        self.system = system
        self.engine = system.engine
        self.config = config or GossipConfig()
        self.tracker = GapTracker()
        self.loss: Optional[ReceptionLoss] = None
        registry = system.obs.registry
        self.events = system.obs.scope("gossip")
        self._rounds = registry.counter("gossip.rounds")
        self._pulls_sent = registry.counter("gossip.pulls_sent")
        self._pulls_lost = registry.counter("gossip.pulls_lost")
        self._pull_bytes = registry.counter("gossip.pull_bytes")
        self._supplies_received = registry.counter("gossip.supplies_received")
        self._supplies_lost = registry.counter("gossip.supplies_lost")
        self._repaired = registry.counter("gossip.messages_repaired")
        self._gaps_flagged = registry.counter("gossip.gaps_flagged")
        self._abandoned = registry.counter("gossip.gave_up")
        registry.gauge_fn("gossip.outstanding",
                          lambda: len(self.tracker.missing))
        registry.gauge_fn("gossip.buffered", self._buffered_total)
        self._fanout_rng = system.rng.stream("gossip/fanout")
        self._converged = self.engine.signal("gossip/converged")
        # Wiring: medium tolerates recorder misses (the buffer is the
        # backup), every delivered publication feeds the buffers, the
        # recorder notes frontiers, supplies come back as controls.
        medium = system.medium
        medium.gossip_backup = True
        medium.gossip_tap = self.observe_wire
        system.recorder.gossip = self
        system.recorder.on_control("gossip_supply", self._on_supply)
        for node in system.nodes.values():
            self.attach_node(node)
        self.engine.spawn(self._round_loop())

    # ------------------------------------------------------------------
    # buffers (push phase)
    # ------------------------------------------------------------------
    def attach_node(self, node) -> None:
        """Give ``node`` a fresh bounded buffer (boot and spare
        takeover both land here)."""
        node.gossip_buffer = GossipBuffer(self.config.buffer_depth)

    def observe_wire(self, frame: Frame) -> None:
        """Medium tap: every delivered publication lands in every up
        node's buffer (the broadcast *is* the push phase)."""
        body = guaranteed_body(frame, Message)
        if body is None or body.recovery_marker:
            return
        for node in self.system.nodes.values():
            buffer = getattr(node, "gossip_buffer", None)
            if buffer is not None and node.up:
                buffer.note(body)

    def _buffered_total(self) -> int:
        return sum(len(getattr(node, "gossip_buffer", None) or ())
                   for node in self.system.nodes.values())

    # ------------------------------------------------------------------
    # gap detection
    # ------------------------------------------------------------------
    def note_recorded(self, message: Message) -> None:
        """Record-path hook: the recorder heard ``message``."""
        if message.recovery_marker:
            return
        fresh = self.tracker.note_recorded(message.msg_id)
        for hole in fresh:
            self._gaps_flagged.inc()
            self.events.emit("gap", hole.sender, seq=hole.seq)

    def _sweep_advertisements(self) -> None:
        """Compare peer buffer contents against the recorder database:
        a buffered publication the recorder never recorded is a hole
        even if no later sequence ever exposed it (tail loss).

        Only what a buffer sighted since the last sweep is read. The
        sweep leaves every id it examines flagged, abandoned, recorded
        or unpublished, and each of those lasts until the id is on the
        wire again: a flagged id the recorder then overhears is a new
        sighting, a supply records it (docs/GOSSIP.md)."""
        db = self.system.recorder.db
        tracker = self.tracker
        for node in self.system.nodes.values():
            buffer = getattr(node, "gossip_buffer", None)
            if buffer is None or not node.up:
                continue
            for msg_id, message in buffer.take_sightings().items():
                if msg_id in tracker.missing or msg_id in tracker.gave_up:
                    continue
                record = db.get(message.dst)
                if record is not None and (msg_id in record.recorded_ids
                                           or not record.recoverable):
                    continue
                if tracker.flag(msg_id):
                    self._gaps_flagged.inc()
                    self.events.emit("gap", msg_id.sender,
                                     seq=msg_id.seq, via="advertisement")

    # ------------------------------------------------------------------
    # pull rounds
    # ------------------------------------------------------------------
    def _round_loop(self):
        while True:
            yield self.config.round_ms
            self._run_round()

    def _run_round(self) -> None:
        recorder = self.system.recorder
        if not recorder.up:
            return          # rounds resume when the recorder restarts
        self._sweep_advertisements()
        tracker = self.tracker
        for msg_id in [m for m, tries in tracker.missing.items()
                       if tries >= self.config.max_retries]:
            tracker.abandon(msg_id)
            self._abandoned.inc()
            self.events.emit("gave_up", msg_id.sender, seq=msg_id.seq)
        wanted = tracker.outstanding()
        if not wanted:
            self._converged.fire(0)
            return
        self._rounds.inc()
        batch = wanted[:PULL_BATCH]
        peers = [node for node in self.system.nodes.values()
                 if node.up and getattr(node, "gossip_buffer", None)]
        if peers:
            k = min(FANOUT, len(peers))
            chosen = self._fanout_rng.sample(peers, k)
            ranges = pull_ranges(batch)
            size_bytes = 32 + 12 * len(ranges)
            for peer in chosen:
                self._pulls_sent.inc()
                if self.loss is not None and self.loss.lose_control():
                    self._pulls_lost.inc()
                    continue
                self._pull_bytes.inc(size_bytes)
                recorder.send_control(
                    peer.node_id,
                    Control("gossip_pull", {"ranges": ranges}),
                    guaranteed=False,
                    size_bytes=size_bytes)
        self.events.emit("round", "recorder", missing=len(wanted),
                         pulled=len(batch), peers=len(peers))
        # A round is an attempt whether or not a peer was reachable:
        # with no peers left the id can never be supplied, and the
        # attempt cap is what keeps recovery waits bounded.
        for msg_id in batch:
            if msg_id in tracker.missing:
                tracker.missing[msg_id] += 1

    # ------------------------------------------------------------------
    # supplies (pull backup)
    # ------------------------------------------------------------------
    def _on_supply(self, control: Control, src_node: int) -> None:
        self._supplies_received.inc()
        if self.loss is not None and self.loss.lose_control():
            self._supplies_lost.inc()
            return
        message = control["message"]
        if not isinstance(message, Message):
            return
        recorder = self.system.recorder
        if not recorder.up:
            return
        if recorder.record_repair(message):
            self._repaired.inc()
            self.events.emit("repair", message.dst,
                             msg=message.msg_id, src_node=src_node)
        # A supply is recorded knowledge like any overheard frame: it
        # resolves its own hole and may expose earlier ones.
        self.note_recorded(message)
        if not self.tracker.missing:
            self._converged.fire(0)

    # ------------------------------------------------------------------
    # recovery integration
    # ------------------------------------------------------------------
    def outstanding_count(self) -> int:
        return len(self.tracker.missing)

    def request_urgent(self):
        """The signal a recovery process waits on before streaming the
        log: fired by the round loop whenever no holes remain (repairs
        applied or abandoned after ``max_retries`` rounds), so the wait
        is bounded by ``max_retries * round_ms``."""
        return self._converged
