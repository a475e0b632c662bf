"""Deterministic adversarial actors for the publishing recorder.

The 1983 paper assumes recorders fail only by crashing; this module
supplies the fault classes it never faced, in the spirit of the
Byzantine Reliable Broadcast literature:

- :class:`ByzantineRecorder` — an interception stage that silently
  drops, reorders, duplicates, bit-corrupts in place, or rewrites the
  records one recorder logs, while the recorder keeps acknowledging
  normally (the dangerous part: nothing upstream can tell).
- :class:`EquivocatingSender` — divergent payloads published under one
  message id. Stages sharing an :class:`EquivocationPlan` log the *same*
  wrong body, modeling colluding recorders rather than random noise.
- :class:`BoundedBufferRecorder` — a hard cap on the recorder's log, as
  in the bounded-model impossibility papers: the oldest live records
  are evicted (principled omission faults) and a backpressure advisory
  fires on the ``adversary`` trace scope when the log nears the cap.

Every stage draws all randomness from one :mod:`random.Random` handed
in by the caller (a named :class:`~repro.sim.rng.RngStreams` stream in
simulations), so campaigns stay seed-pure: two same-seed runs inject
byte-identical faults. Stages plug into ``Recorder.intercept`` (see
:meth:`repro.publishing.recorder.Recorder.observe_delivery`); recovery
markers are never intercepted — they are the recovery protocol's own
traffic, not published records.

The same stage objects drive the *offline* differential harness: feed a
ground-truth message stream through :func:`feed_record` per recorder,
then hand the records to
:func:`repro.publishing.multi_recorder.quorum_replay_stream`.

:func:`run_quorum_scenario` is the end-to-end acceptance rig: a
:class:`~repro.system.SystemConfig` with 2f+1 ``replica`` recorders (so
quorum replay is attached) and a :class:`~repro.chaos.ChaosCampaign`
that turns some of them Byzantine mid-traffic and then crashes a node,
forcing a recovery through the vote.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.demos.ids import MessageId, ProcessId
from repro.demos.messages import Message
from repro.errors import ConfigError


class AdversaryConfigError(ConfigError):
    """An adversary stage or the quorum rig was given a value outside
    its domain (an unknown Byzantine mode, a non-positive cap, f < 1,
    more faulty recorders than recorders)."""


#: the fault repertoire of a ByzantineRecorder stage
BYZANTINE_MODES = ("drop", "duplicate", "corrupt", "reorder", "bitrot")

_MODE_COUNTERS = {
    "drop": "adversary.drops",
    "duplicate": "adversary.duplicates",
    "corrupt": "adversary.corruptions",
    "reorder": "adversary.reorders",
    "bitrot": "adversary.bitrot",
    "equivocate": "adversary.equivocations",
}


class _StageObs:
    """Shared counter/event plumbing for the adversary stages."""

    def __init__(self, obs, recorder_id: Optional[int]):
        self.recorder_id = recorder_id
        self.subject = (f"recorder{recorder_id}"
                        if recorder_id is not None else "recorder")
        if obs is not None:
            self._registry = obs.registry
            self._faults = obs.registry.counter("adversary.faults_injected")
            self.events = obs.scope("adversary")
        else:
            self._registry = None
            self._faults = None
            self.events = None

    def note(self, mode: str, msg_id) -> None:
        if self._registry is None:
            return
        self._faults.inc()
        # Looked up per fault on purpose: a mode's counter first appears
        # in the snapshot when that mode first fires, and the snapshot's
        # key set is hashed into every committed digest.
        self._registry.counter(_MODE_COUNTERS[mode]).inc()
        self.events.emit(mode, self.subject, msg=msg_id)

    def counter(self, name: str):
        if self._registry is None:
            return None
        return self._registry.counter(name)


class ByzantineRecorder:
    """Seed-pure Byzantine faults on one recorder's record path.

    Per delivered message one uniform draw decides whether to fault
    (probability ``rate``) and, if so, a second draw picks the mode:

    - ``drop``       — the record never reaches this log
    - ``duplicate``  — the record is logged twice (dedup bypassed)
    - ``corrupt``    — a rewritten body is logged (checksum re-stamped,
      so the fault is locally invisible and only a quorum can see it)
    - ``reorder``    — the record is held and logged after its successor
    - ``bitrot``     — the body is mangled *after* append, leaving the
      stamped checksum stale, so a verified read raises

    ``set_rate(0.0)`` closes the fault window without perturbing the
    draw sequence of other streams (campaign ``duration_ms`` support).
    """

    def __init__(self, rng: random.Random,
                 modes: Sequence[str] = BYZANTINE_MODES,
                 rate: float = 0.25, obs=None,
                 recorder_id: Optional[int] = None):
        modes = tuple(modes)
        bad = [m for m in modes if m not in BYZANTINE_MODES]
        if bad or not modes:
            raise AdversaryConfigError(
                f"unknown byzantine modes {bad or modes}")
        self.rng = rng
        self.modes = modes
        self.rate = rate
        self.faults_injected = 0
        self._held: Optional[Message] = None
        self._bitrot_pending: set = set()
        self._obs = _StageObs(obs, recorder_id)

    def set_rate(self, rate: float) -> None:
        self.rate = rate

    # ------------------------------------------------------------------
    def deliveries(self, message: Message) -> List[Tuple[Message, bool]]:
        mode = None
        if self.rate > 0.0 and self.rng.random() < self.rate:
            mode = self.modes[self.rng.randrange(len(self.modes))]
        if mode is not None:
            self.faults_injected += 1
            self._obs.note(mode, message.msg_id)
        if mode == "reorder" and self._held is None:
            self._held = message
            return []
        out: List[Tuple[Message, bool]] = []
        if mode == "drop":
            pass
        elif mode == "duplicate":
            out.append((message, False))
            out.append((message, True))
        elif mode == "corrupt":
            salt = self.rng.randrange(1 << 16)
            out.append((replace(message,
                                body=("corrupt", salt, message.body)),
                        False))
        elif mode == "bitrot":
            self._bitrot_pending.add(message.msg_id)
            out.append((message, False))
        else:                        # faithful, or reorder-while-holding
            out.append((message, False))
        if self._held is not None:
            # release the held record *after* its successor: log order
            # now disagrees with every honest recorder
            out.append((self._held, False))
            self._held = None
        return out

    def note_confirmed(self, lm) -> None:
        if lm.message.msg_id in self._bitrot_pending and not lm.is_marker:
            self._bitrot_pending.discard(lm.message.msg_id)
            # mangle in place; the checksum stamped at append is now
            # stale and a verify=True read raises RecordCorruptionError
            lm.message = replace(lm.message,
                                 body=("bitrot", lm.message.body))


class EquivocationPlan:
    """One divergent-payload decision per message id, shared by every
    colluding stage — so the faulty recorders agree with *each other*
    and only a cross-recorder quorum can outvote them."""

    def __init__(self, rng: random.Random, rate: float = 0.5,
                 sender: Optional[Tuple[int, int]] = None):
        self.rng = rng
        self.rate = rate
        self.sender = ProcessId(*sender) if sender is not None else None
        self._decisions: Dict[MessageId, Optional[Message]] = {}
        self.equivocations = 0

    def variant(self, message: Message) -> Optional[Message]:
        """The divergent copy to log instead, or None to stay honest."""
        if message.recovery_marker:
            return None
        if self.sender is not None and message.src != self.sender:
            return None
        if message.msg_id not in self._decisions:
            divergent = None
            if self.rate > 0.0 and self.rng.random() < self.rate:
                salt = self.rng.randrange(1 << 16)
                divergent = replace(message,
                                    body=("equivocate", salt, message.body))
                self.equivocations += 1
            self._decisions[message.msg_id] = divergent
        return self._decisions[message.msg_id]


class EquivocatingSender:
    """Stage half of an equivocation: log the plan's divergent copy."""

    def __init__(self, plan: EquivocationPlan, obs=None,
                 recorder_id: Optional[int] = None):
        self.plan = plan
        self._obs = _StageObs(obs, recorder_id)

    def set_rate(self, rate: float) -> None:
        self.plan.rate = rate

    def deliveries(self, message: Message) -> List[Tuple[Message, bool]]:
        divergent = self.plan.variant(message)
        if divergent is None:
            return [(message, False)]
        self._obs.note("equivocate", message.msg_id)
        return [(divergent, False)]

    def note_confirmed(self, lm) -> None:
        pass


class BoundedBufferRecorder:
    """A hard cap on one recorder's log (the bounded-model papers).

    Records pass through unmodified; what changes is retention. When the
    log's live record count crosses ``advisory_fraction * max_records``
    a ``backpressure`` advisory fires once per episode, and above
    ``max_records`` the oldest live data records this stage logged are
    evicted (invalidated — principled omission faults that quorum replay
    must survive). Markers and kernel-control records are never evicted.
    """

    def __init__(self, recorder, max_records: int,
                 advisory_fraction: float = 0.8, obs=None):
        if max_records < 1:
            raise AdversaryConfigError("max_records must be >= 1")
        self.recorder = recorder
        self.max_records = max_records
        self.advisory_fraction = advisory_fraction
        self._fifo: Deque = deque()
        self._advised = False
        self.evictions = 0
        self.advisories = 0
        self._obs = _StageObs(obs, recorder.config.node_id)
        self._evicted = self._obs.counter("adversary.evictions")
        self._backpressure = self._obs.counter(
            "adversary.backpressure_advisories")

    def deliveries(self, message: Message) -> List[Tuple[Message, bool]]:
        return [(message, False)]

    def note_confirmed(self, lm) -> None:
        if not lm.is_marker and not lm.is_control:
            self._fifo.append(lm)
        log = self.recorder.db.log
        threshold = self.advisory_fraction * self.max_records
        if log.live_records >= threshold:
            if not self._advised:
                self._advised = True
                self.advisories += 1
                if self._backpressure is not None:
                    self._backpressure.inc()
                if self._obs.events is not None:
                    self._obs.events.emit("backpressure", self._obs.subject,
                                          live=log.live_records,
                                          cap=self.max_records)
        else:
            self._advised = False
        while log.live_records > self.max_records:
            while self._fifo and self._fifo[0].invalid:
                self._fifo.popleft()
            if not self._fifo:
                break                # nothing evictable left below the cap
            victim = self._fifo.popleft()
            victim.invalid = True
            self.evictions += 1
            if self._evicted is not None:
                self._evicted.inc()
            if self._obs.events is not None:
                self._obs.events.emit("evict", self._obs.subject,
                                      msg=victim.message.msg_id)


class AdversaryPipeline:
    """Chains stages on one recorder: each stage transforms the
    delivery batch the previous one produced."""

    def __init__(self):
        self.stages: List[Any] = []

    def add(self, stage) -> None:
        self.stages.append(stage)

    def deliveries(self, message: Message) -> List[Tuple[Message, bool]]:
        batch: List[Tuple[Message, bool]] = [(message, False)]
        for stage in self.stages:
            out: List[Tuple[Message, bool]] = []
            for msg, forced in batch:
                for replacement, extra_forced in stage.deliveries(msg):
                    out.append((replacement, forced or extra_forced))
            batch = out
        return batch

    def note_confirmed(self, lm) -> None:
        for stage in self.stages:
            stage.note_confirmed(lm)


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def install_stage(recorder, stage):
    """Hang ``stage`` on ``recorder.intercept`` (chaining if one is
    already armed) and return it."""
    if recorder.intercept is None:
        recorder.intercept = AdversaryPipeline()
    recorder.intercept.add(stage)
    return stage


def install_byzantine(recorder, rng: random.Random,
                      modes: Sequence[str] = BYZANTINE_MODES,
                      rate: float = 0.25) -> ByzantineRecorder:
    stage = ByzantineRecorder(rng, modes=modes, rate=rate, obs=recorder.obs,
                              recorder_id=recorder.config.node_id)
    return install_stage(recorder, stage)


def install_equivocator(recorder,
                        plan: EquivocationPlan) -> EquivocatingSender:
    stage = EquivocatingSender(plan, obs=recorder.obs,
                               recorder_id=recorder.config.node_id)
    return install_stage(recorder, stage)


def install_bounded(recorder, max_records: int,
                    advisory_fraction: float = 0.8) -> BoundedBufferRecorder:
    stage = BoundedBufferRecorder(
        recorder, max_records, advisory_fraction=advisory_fraction,
        obs=recorder.obs)
    return install_stage(recorder, stage)


# ----------------------------------------------------------------------
# the offline half: feed records through stages without an engine
# ----------------------------------------------------------------------
def feed_record(record, db, message: Message, stage=None) -> None:
    """Deliver one message into a recorder database through an optional
    adversary stage — the engine-less analog of
    ``Recorder.observe_delivery``, through the same door
    (:meth:`~repro.publishing.database.RecorderDatabase.deliver`); the
    differential harness and the perf workload both use it."""
    for _ in db.deliver(message, lambda _message: record, stage):
        pass


# ----------------------------------------------------------------------
# the acceptance rig: 2f+1 recorders, quorum replay, a mid-traffic
# Byzantine window, and a node crash that forces recovery to vote
# ----------------------------------------------------------------------
def run_quorum_scenario(f: int = 1, byzantine: int = 1, messages: int = 30,
                        master_seed: int = 1983,
                        modes: Sequence[str] = ("drop", "corrupt",
                                                "duplicate", "reorder"),
                        rate: float = 0.3, equivocate: bool = False,
                        ) -> Tuple[Any, Dict[str, Any]]:
    """Run the quorum acceptance scenario; returns the settled
    :class:`~repro.system.System` and the report dict.

    A config and a campaign, run by
    :func:`~repro.chaos.workload.run_scenario`: a two-node system with
    2f+1 ``replica`` recorders (90, 91, ...) acknowledging all traffic;
    at 900 ms the *last* ``byzantine`` recorders turn Byzantine
    (priority vectors put the honest ones first); at 2800 ms the
    counter's node crashes and its recovery replays through the quorum
    cursor.

    ``ok`` means: with ``byzantine <= f`` the workload finished exactly
    and every flagged recorder really was faulty; with ``byzantine >
    f`` the run is ok iff the corruption was *detected* (divergence or
    unresolved events) or the majority happened to stay right — never a
    silent wrong total.
    """
    from repro.chaos.actions import (ByzantineRecorderFault, ChaosAction,
                                     CrashNode, EquivocateSender)
    from repro.chaos.campaign import ChaosCampaign
    from repro.chaos.workload import run_scenario
    from repro.system import SystemConfig

    total = 2 * f + 1
    if f < 1 or byzantine > total:
        raise AdversaryConfigError(
            f"a quorum needs f >= 1 and at most 2f+1 faulty recorders "
            f"(f={f}, byzantine={byzantine})")
    config = SystemConfig(nodes=2, recorder_node_id=90, recorder_shards=total,
                          placement_policy="replica", master_seed=master_seed)
    faulty = tuple(config.recorder_node_id + j    # replica j's node id
                   for j in range(total - byzantine, total))
    actions: List[ChaosAction] = []
    if faulty:
        actions.append(ByzantineRecorderFault(
            900.0, recorders=faulty, modes=tuple(modes), rate=rate))
        if equivocate:
            actions.append(EquivocateSender(900.0, recorders=faulty,
                                            rate=rate))
    actions.append(CrashNode(2800.0, node=2))
    result = run_scenario(ChaosCampaign(actions, name="adversary_quorum"),
                          config, pairs=1, messages=messages,
                          deadline_ms=240_000.0, settle_ms=6000.0)
    system = result.system

    # -- judge ----------------------------------------------------------
    total_seen, = result.totals
    expected = result.expected
    exact = total_seen == expected
    snap = system.metrics_snapshot()
    divergences = int(snap.get("quorum.divergences", 0))
    unresolved = int(snap.get("quorum.unresolved", 0))
    outvoted = sorted(system.quorum.divergent)
    flagged_honest = [rid for rid in outvoted if rid not in faulty]
    if byzantine <= f:
        ok = exact and not flagged_honest and unresolved == 0
    else:
        ok = exact or divergences > 0 or unresolved > 0
    report = {
        "name": "adversary_quorum",
        "seed": master_seed,
        "f": f,
        "recorders": total,
        "byzantine": byzantine,
        "faulty_ids": list(faulty),
        "messages": messages,
        "modes": list(modes),
        "rate": rate,
        "equivocate": equivocate,
        "total": total_seen,
        "expected": expected,
        "exact": exact,
        "faults_injected": int(snap.get("adversary.faults_injected", 0)),
        "quorum_replays": int(snap.get("quorum.replays", 0)),
        "quorum_divergences": divergences,
        "quorum_unresolved": unresolved,
        "quorum_stale_skips": int(snap.get("quorum.stale_skips", 0)),
        "outvoted": outvoted,
        "outvoted_reasons": dict(sorted(system.quorum.divergent.items())),
        "flagged_honest": flagged_honest,
        "recoveries_completed": snap["recovery.recoveries_completed"],
        "messages_replayed": snap["recovery.messages_replayed"],
        "sim_ms": system.engine.now,
        "ok": ok,
    }
    return system, report
