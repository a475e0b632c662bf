"""Multiple recorders for availability (§6.3).

"Assume a broadcast network with n processing nodes, labeled P_i, and m
recorders, labeled R_j. At any one time only one recorder is allowed to
recover any particular processing node. We achieve this by assigning an
m element vector, V_i, to each processing node P_i. Each vector
describes a priority ordering for all the recorders. If processor P_i
fails, it is recovered by the highest priority recorder in V_i which is
functioning."

The medium-level half of the design ("each message must have an
acknowledge from all recorders") lives in
:meth:`repro.net.media.Medium._record_frame`; this module implements the
recovery-coordination half: a recorder that notices a node failure
offers the job to every higher-priority recorder and recovers the node
itself only when none of them answers within the interval — and keeps
requerying, so a higher-priority recorder that dies mid-recovery does
not leave the node dead.

The second half of this module goes beyond the 1983 paper: 2f+1
**quorum replay**. The paper assumes recorders fail only by crashing;
with Byzantine recorders (``repro.chaos.adversary``) a single log can
silently drop, duplicate, reorder, or corrupt records. A
:class:`QuorumReplay` ensemble compares the per-recorder replay streams
record-by-record and replays the majority: any ≤f faulty recorders of
2f+1 are outvoted (and surfaced as ``quorum.divergence`` spine events
naming the outvoted recorder) while the recovered process state stays
digest-identical to a fault-free run. With more than f faulty recorders
the majority can be wrong — but it is never silently wrong: divergence
or ``quorum.unresolved`` events always fire (see docs/ADVERSARY.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.demos.messages import Control
from repro.digest import fold
from repro.errors import QuorumDivergenceError, RecordCorruptionError
from repro.publishing.store import payload_digest
from repro.sim.engine import Engine

#: how long a recorder waits for a higher-priority one to accept a
#: recovery it offered, and how long it then waits before checking that
#: the node came back
ANSWER_TIMEOUT_MS = 800.0
REQUERY_INTERVAL_MS = 4000.0


class MultiRecorderCoordinator:
    """The per-recorder side of the §6.3 protocol.

    Wired to a :class:`RecoveryManager` through ``manager.coordinator``
    (:class:`~repro.system.System` does it for every recorder of a
    ``replica`` layout); the manager consults :meth:`claim` before
    recovering a silent node. ``vectors`` maps each processing node id
    to its V_i, recorder node ids highest priority first; every
    recorder of a cluster shares the one dict.
    """

    def __init__(self, engine: Engine, manager,
                 vectors: Dict[int, List[int]]):
        self.engine = engine
        self.manager = manager
        self.recorder = manager.recorder
        self.my_id = self.recorder.config.node_id
        self.vectors = vectors
        self._accepts: Dict[int, Set[int]] = {}     # node -> accepting recorders
        self._negotiating: Set[int] = set()
        #: when set to a :class:`QuorumReplay`, this recorder's
        #: recoveries replay the cross-recorder majority stream instead
        #: of trusting its own log alone.
        self.quorum: Optional["QuorumReplay"] = None
        self.offers_received = 0
        self.offers_sent = 0
        self.takeovers = 0
        self.recorder.on_control("recover_offer", self._on_offer)
        self.recorder.on_control("recover_answer", self._on_answer)

    # ------------------------------------------------------------------
    def claim(self, node_id: int) -> bool:
        """Should *this* recorder recover ``node_id`` right now?

        True when it is the highest-priority recorder in V_i; otherwise a
        negotiation activity is spawned and False is returned — the node
        will still be recovered, by whoever wins.
        """
        vector = self.vectors[node_id]
        higher = vector[:vector.index(self.my_id)]
        if not higher:
            return True
        if node_id not in self._negotiating:
            self._negotiating.add(node_id)
            self.engine.spawn(self._negotiate(node_id, higher))
        return False

    def _negotiate(self, node_id: int, higher: List[int]):
        self._accepts[node_id] = set()
        for recorder_id in higher:
            self.offers_sent += 1
            self.recorder.send_control(recorder_id, Control("recover_offer", {
                "node": node_id, "from": self.my_id,
            }), guaranteed=False)
        yield ANSWER_TIMEOUT_MS
        accepted = self._accepts.get(node_id, set())
        if not accepted & set(higher):
            # "If they are not, or they do not answer in a set interval,
            # R performs the recovery."
            self.takeovers += 1
            self.manager.recover_node(node_id)
            self._negotiating.discard(node_id)
            return
        # Someone better took the job; keep watching in case it dies
        # during the recovery.
        yield REQUERY_INTERVAL_MS
        self._negotiating.discard(node_id)
        if self._node_still_silent(node_id):
            self.claim(node_id) and self.manager.recover_node(node_id)

    def _node_still_silent(self, node_id: int) -> bool:
        dog = self.manager.watchdogs.get(node_id)
        if dog is None:
            return False
        return (self.engine.now - dog._last_reply) > dog.timeout_ms

    # ------------------------------------------------------------------
    def _on_offer(self, control: Control, src_node: int) -> None:
        """A lower-priority recorder asks us to recover a node."""
        self.offers_received += 1
        if not self.recorder.up:
            return
        node_id = control["node"]
        self.recorder.send_control(control["from"], Control("recover_answer", {
            "node": node_id, "recorder": self.my_id, "accept": True,
        }), guaranteed=False)
        # An offer can reach *several* live recorders (with 2f+1 in the
        # vector, every recorder below the offerer gets one); only the
        # highest-priority live recorder may act on it directly, or two
        # replay streams interleave into the recovering process. Anyone
        # else re-enters the claim negotiation and recovers only if the
        # better candidates stay silent.
        if not self.claim(node_id):
            return
        # Avoid double recovery if several offers arrive for one crash.
        records = self.recorder.db.processes_on(node_id)
        if records and all(r.recovering for r in records):
            return
        self.manager.recover_node(node_id)

    def _on_answer(self, control: Control, src_node: int) -> None:
        if control.get("accept"):
            self._accepts.setdefault(control["node"], set()).add(control["recorder"])


# ----------------------------------------------------------------------
# 2f+1 quorum replay
# ----------------------------------------------------------------------
def _replay_key(lm) -> Tuple[object, int, bool]:
    """What the members vote on: a record's identity *and* content.

    Two recorders agree on a record iff the message id, the payload
    digest, and the marker flag all match — an equivocated or corrupted
    copy shares the id but not the digest, so it loses the vote.
    """
    return (lm.message.msg_id, payload_digest(lm.message), lm.is_marker)


def process_state_digest(stream: Iterable) -> int:
    """Fold a replay stream into the digest of the process state it
    rebuilds: every valid non-marker record, in replay order."""
    digest = 0
    for lm in stream:
        if lm.is_marker or lm.invalid:
            continue
        digest = fold(digest, payload_digest(lm.message))
    return digest


class _QuorumMember:
    """One recorder's view of a process's replay stream."""

    __slots__ = ("index", "rid", "record", "cursor", "pending",
                 "pending_key", "invalid_ids")

    def __init__(self, index: int, rid: int, record):
        self.index = index
        self.rid = rid
        self.record = record
        self.cursor = (record.replay_cursor(verify=True)
                       if record is not None else None)
        self.pending = None
        self.pending_key = None
        #: msg_ids this member skipped as invalidated (checkpoint
        #: coverage) — the majority must not re-apply them on top of a
        #: checkpoint that already contains them.
        self.invalid_ids: Set[object] = set()


class QuorumReplayCursor:
    """Record-by-record majority vote over 2f+1 recorder streams.

    ``next()`` returns the next record of the **majority** stream (or
    None). Every member holds one fresh "pending" head; a head agreeing
    with the winning key is consumed, a disagreeing head flags its
    recorder as divergent. Heads whose (msg_id, digest) the majority
    already emitted are silently skipped — that is how an honest member
    that briefly lagged (or a Byzantine duplicate) resynchronizes
    without a false accusation.

    In ``live`` mode an indecisive vote returns None *once* and waits:
    the medium notifies recorders of a delivery in one synchronous loop,
    so the recovery activity can be resumed by the primary's arrival
    signal before the peers have logged the same message. The skew heals
    by the next wake; only a vote that is indecisive twice with
    identical heads falls back to the flagged primary stream (never a
    silent wedge, never silent corruption). Offline (``live=False``)
    exhausted members are final and the fallback fires immediately.
    """

    def __init__(self, members: Sequence[Tuple[int, object]], f: int,
                 live: bool = True, quorum: Optional["QuorumReplay"] = None,
                 pid=None):
        self._members = [m for m in (_QuorumMember(i, rid, record)
                                     for i, (rid, record) in enumerate(members))
                         if m.cursor is not None]
        self._f = f
        self._live = live
        self._quorum = quorum
        self._pid = pid
        self._seen: Set[Tuple[object, int]] = set()
        self._last_indecisive = None
        self.divergent: Dict[int, str] = {}
        self.unresolved = 0
        self.stale_skips = 0
        self.replayed = 0

    # ------------------------------------------------------------------
    def next(self):
        members = self._members
        if not members:
            return None
        primary = members[0]
        quorum_n = self._f + 1
        while True:
            self._refresh()
            votes: Dict[Tuple, List[_QuorumMember]] = {}
            for m in members:
                if m.pending is not None:
                    votes.setdefault(m.pending_key, []).append(m)
            if not votes:
                return None          # every member caught up / exhausted
            best_key, best_rank = None, None
            for key, backers in votes.items():
                # deterministic tie-break: most backers, then the
                # backer set containing the lowest member index
                rank = (len(backers), -backers[0].index)
                if best_rank is None or rank > best_rank:
                    best_rank, best_key = rank, key
            supporters = votes[best_key]
            if len(supporters) >= quorum_n:
                lm = supporters[0].pending
                msg_id, digest, _ = best_key
                self._seen.add((msg_id, digest))
                for m in members:
                    if m.pending is None:
                        continue
                    if m.pending_key == best_key:
                        m.pending = m.pending_key = None
                    else:
                        self._flag(m, "divergent", expected=str(msg_id),
                                   got=str(m.pending_key[0]))
                        if m.pending_key[0] == msg_id:
                            # its corrupt twin of this very record
                            m.pending = m.pending_key = None
                self._last_indecisive = None
                if msg_id in primary.invalid_ids:
                    # the primary's checkpoint already covers it;
                    # replaying the peers' copy would double-apply
                    self.stale_skips += 1
                    continue
                self._note_replayed()
                return lm
            # ---- no quorum ------------------------------------------
            pattern = tuple((m.rid, m.pending_key) for m in members)
            if self._live and pattern != self._last_indecisive:
                # plausible intra-event skew: peers later in the
                # medium's delivery loop have not logged yet — wait
                self._last_indecisive = pattern
                return None
            self._last_indecisive = None
            self._note_unresolved(votes)
            if primary.pending is not None:
                lm = primary.pending
                self._seen.add((primary.pending_key[0],
                                primary.pending_key[1]))
                for m in members:
                    if m.pending is not None and m is not primary:
                        self._flag(m, "no_quorum",
                                   got=str(m.pending_key[0]))
                primary.pending = primary.pending_key = None
                self._note_replayed()
                return lm
            # the primary is exhausted: the leftovers are minority
            # tails — flag and drop them, never replay them
            for m in members:
                if m.pending is not None:
                    self._flag(m, "no_quorum", got=str(m.pending_key[0]))
                    m.pending = m.pending_key = None

    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        seen = self._seen
        for m in self._members:
            p = m.pending
            if p is not None and p.invalid and not p.is_marker:
                # invalidated while pending (a checkpoint landed)
                m.invalid_ids.add(p.message.msg_id)
                m.pending = m.pending_key = None
                p = None
            if p is not None:
                continue
            while True:
                try:
                    lm = m.cursor.next()
                except RecordCorruptionError:
                    self._flag(m, "corrupt_read")
                    continue
                if lm is None:
                    break
                if lm.invalid and not lm.is_marker:
                    m.invalid_ids.add(lm.message.msg_id)
                    continue
                key = _replay_key(lm)
                if (key[0], key[1]) in seen:
                    # already emitted by the majority: a lagging honest
                    # member or a Byzantine duplicate — not divergence
                    self.stale_skips += 1
                    self._note_stale()
                    continue
                m.pending, m.pending_key = lm, key
                break

    # ------------------------------------------------------------------
    def _flag(self, m: _QuorumMember, reason: str, **detail) -> None:
        first = m.rid not in self.divergent
        if first:
            self.divergent[m.rid] = reason
        if self._quorum is not None:
            self._quorum.note_divergence(m.rid, reason, self._pid,
                                         first=first, **detail)

    def _note_replayed(self) -> None:
        self.replayed += 1
        if self._quorum is not None:
            self._quorum.note_replayed()

    def _note_stale(self) -> None:
        if self._quorum is not None:
            self._quorum.note_stale()

    def _note_unresolved(self, votes) -> None:
        self.unresolved += 1
        if self._quorum is not None:
            self._quorum.note_unresolved(self._pid, len(votes))


class QuorumReplay:
    """A 2f+1 recorder ensemble sharing one agreement checker.

    One per cluster, hung on every coordinator
    (``manager.coordinator.quorum = ensemble`` — ``System`` does it for
    three or more replicas); recoveries then replay through
    :meth:`cursor` instead of the primary's private log.
    """

    def __init__(self, recorders: Sequence):
        self.recorders = list(recorders)
        #: faults outvoted — derived from the count, never configured
        self.f = (len(self.recorders) - 1) // 2
        self.obs = self.recorders[0].obs
        #: every recorder ever outvoted, with the first reason
        self.divergent: Dict[int, str] = {}
        self._emitted: Set[Tuple] = set()
        registry = self.obs.registry
        self._replays = registry.counter("quorum.replays")
        self._divergences = registry.counter("quorum.divergences")
        self._unresolved = registry.counter("quorum.unresolved")
        self._stale = registry.counter("quorum.stale_skips")
        self.events = self.obs.scope("quorum")

    # ------------------------------------------------------------------
    def cursor(self, primary, record, epoch=None) -> QuorumReplayCursor:
        """A live majority cursor for ``record`` (the primary
        recorder's copy), fed by every other live recorder's stream.

        Peer arrival signals are forwarded onto the primary's for the
        duration of the recovery, so a catch-up wait also wakes when a
        *peer* logs the next record (the primary may have missed it —
        it could be the faulty one)."""
        pid = record.pid
        members: List[Tuple[int, object]] = [(primary.config.node_id, record)]
        primary_signal = primary.arrival_signal(pid)
        for recorder in self.recorders:
            if recorder is primary or not recorder.up:
                continue
            peer_record = recorder.db.get(pid)
            members.append((recorder.config.node_id, peer_record))
            if peer_record is not None:
                primary.engine.spawn(self._forward(
                    recorder.arrival_signal(pid), primary_signal,
                    record, epoch))
        return QuorumReplayCursor(members, f=self.f, live=True,
                                  quorum=self, pid=pid)

    def _forward(self, peer_signal, primary_signal, record, epoch):
        while record.recovering and (epoch is None
                                     or record.recovery_epoch == epoch):
            value = yield peer_signal
            if record.recovering and (epoch is None
                                      or record.recovery_epoch == epoch):
                primary_signal.fire(value)

    # ------------------------------------------------------------------
    def note_replayed(self) -> None:
        self._replays.inc()

    def note_stale(self) -> None:
        self._stale.inc()

    def note_divergence(self, rid: int, reason: str, pid,
                        first: bool = True, **detail) -> None:
        self.divergent.setdefault(rid, reason)
        self._divergences.inc()
        key = (rid, pid, reason)
        if key not in self._emitted:
            self._emitted.add(key)
            self.events.emit("divergence", f"recorder{rid}",
                             reason=reason, pid=pid, **detail)

    def note_unresolved(self, pid, candidates: int) -> None:
        self._unresolved.inc()
        self.events.emit("unresolved", pid, candidates=candidates)


@dataclass
class QuorumVerdict:
    """What an offline quorum replay concluded."""

    stream: List                      # the majority replay stream
    divergent: Dict[int, str]         # outvoted recorder -> first reason
    unresolved: int
    stale_skips: int
    replayed: int

    @property
    def clean(self) -> bool:
        return not self.divergent and not self.unresolved


def quorum_replay_stream(records: Sequence,
                         f: Optional[int] = None) -> QuorumVerdict:
    """Drive a full offline quorum replay over per-recorder records.

    ``records`` holds each recorder's :class:`ProcessRecord` for one
    process (optionally ``(recorder_id, record)`` pairs); index 0 is
    the primary. Returns the majority stream plus every flag raised —
    the differential harness in tests/test_adversary.py compares
    :func:`process_state_digest` of the result against the fault-free
    stream.
    """
    pairs: List[Tuple[int, object]] = []
    for i, item in enumerate(records):
        if isinstance(item, tuple):
            pairs.append(item)
        else:
            pairs.append((i, item))
    if f is None:
        f = (len(pairs) - 1) // 2
    if len(pairs) < 2 * f + 1:
        raise QuorumDivergenceError(
            f"tolerating f={f} faults takes {2 * f + 1} recorder streams; "
            f"got {len(pairs)}")
    cursor = QuorumReplayCursor(pairs, f=f, live=False,
                                pid=getattr(pairs[0][1], "pid", None))
    stream: List = []
    guard = sum(len(r._live) for _, r in pairs if r is not None) * 2 + 16
    while True:
        if guard <= 0:               # pragma: no cover - runaway backstop
            raise QuorumDivergenceError("quorum replay failed to converge")
        guard -= 1
        lm = cursor.next()
        if lm is None:
            break
        stream.append(lm)
    return QuorumVerdict(stream=stream, divergent=dict(cursor.divergent),
                         unresolved=cursor.unresolved,
                         stale_skips=cursor.stale_skips,
                         replayed=cursor.replayed)
