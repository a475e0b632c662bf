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

:func:`run_quorum_scenario` is the end-to-end acceptance rig: a 2f+1
recorder cluster with quorum replay attached, Byzantine stages armed
mid-traffic, and a node crash that forces a recovery through the vote.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.demos.ids import MessageId, ProcessId
from repro.demos.messages import Message

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
        self.events.emit(mode, self.subject, msg=str(msg_id))

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
            raise ValueError(f"unknown byzantine modes {bad or modes}")
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
            raise ValueError("max_records must be >= 1")
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
                                      msg=str(victim.message.msg_id))


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
                      rate: float = 0.25, obs=None) -> ByzantineRecorder:
    stage = ByzantineRecorder(rng, modes=modes, rate=rate,
                              obs=obs if obs is not None else recorder.obs,
                              recorder_id=recorder.config.node_id)
    return install_stage(recorder, stage)


def install_equivocator(recorder, plan: EquivocationPlan,
                        obs=None) -> EquivocatingSender:
    stage = EquivocatingSender(plan,
                               obs=obs if obs is not None else recorder.obs,
                               recorder_id=recorder.config.node_id)
    return install_stage(recorder, stage)


def install_bounded(recorder, max_records: int,
                    advisory_fraction: float = 0.8,
                    obs=None) -> BoundedBufferRecorder:
    stage = BoundedBufferRecorder(
        recorder, max_records, advisory_fraction=advisory_fraction,
        obs=obs if obs is not None else recorder.obs)
    return install_stage(recorder, stage)


# ----------------------------------------------------------------------
# the offline half: feed records through stages without an engine
# ----------------------------------------------------------------------
def feed_record(record, db, message: Message, stage=None) -> None:
    """Deliver one message into a recorder database through an optional
    adversary stage — the engine-less analog of
    ``Recorder.observe_delivery`` the differential harness and the perf
    workload both use."""
    if stage is None or message.recovery_marker:
        record.confirm_message(message, db.allocate_arrival_index())
        return
    for replacement, forced in stage.deliveries(message):
        index = db.allocate_arrival_index()
        if forced:
            lm = record.force_append(replacement, index)
        else:
            if not record.confirm_message(replacement, index):
                continue
            lm = record._live[-1]
        stage.note_confirmed(lm)


# ----------------------------------------------------------------------
# the acceptance rig: 2f+1 recorders, quorum replay, a mid-traffic
# Byzantine window, and a node crash that forces recovery to vote
# ----------------------------------------------------------------------
class QuorumScenarioResult:
    """Everything the CLI / CI gate / tests need from one rig run."""

    def __init__(self, engine, obs, recorders, managers, nodes, quorum,
                 report: Dict[str, Any]):
        self.engine = engine
        self.obs = obs
        self.recorders = recorders
        self.managers = managers
        self.nodes = nodes
        self.quorum = quorum
        self.report = report

    @property
    def ok(self) -> bool:
        return bool(self.report["ok"])

    def event_stream(self) -> str:
        return self.obs.bus.to_jsonl()


def run_quorum_scenario(f: int = 1, byzantine: int = 1,
                        node_count: int = 2, messages: int = 30,
                        master_seed: int = 1983,
                        modes: Sequence[str] = ("drop", "corrupt",
                                                "duplicate", "reorder"),
                        rate: float = 0.3, equivocate: bool = False,
                        byzantine_at_ms: float = 900.0,
                        crash_at_ms: float = 2800.0,
                        deadline_ms: float = 240_000.0,
                        settle_ms: float = 6000.0) -> QuorumScenarioResult:
    """Run the quorum acceptance scenario.

    2f+1 recorders acknowledge all traffic; at ``byzantine_at_ms`` the
    *last* ``byzantine`` recorders turn Byzantine (priority vectors put
    the honest ones first); at ``crash_at_ms`` the counter's node
    crashes and its recovery replays through the quorum cursor.

    ``ok`` means: with ``byzantine <= f`` the workload finished exactly
    and every flagged recorder really was faulty; with ``byzantine >
    f`` the run is ok iff the corruption was *detected* (divergence or
    unresolved events) or the majority happened to stay right — never a
    silent wrong total.
    """
    from repro.chaos.workload import (
        ChaosCounter, ChaosDriver, expected_total)
    from repro.demos.costs import CostModel
    from repro.demos.ids import kernel_pid
    from repro.demos.kernel import KernelConfig
    from repro.demos.kernel_process import (
        KERNEL_PROCESS_IMAGE, KernelProcessProgram)
    from repro.demos.node import Node
    from repro.demos.process import ProgramRegistry
    from repro.net.media import PerfectBroadcast
    from repro.net.transport import TransportConfig
    from repro.publishing.multi_recorder import (
        MultiRecorderCoordinator, PriorityVectors, QuorumReplay)
    from repro.publishing.recorder import Recorder, RecorderConfig
    from repro.publishing.recovery_manager import RecoveryManager
    from repro.sim.engine import Engine
    from repro.sim.rng import RngStreams

    if byzantine > 2 * f + 1:
        raise ValueError("cannot have more faulty recorders than recorders")
    total = 2 * f + 1
    engine = Engine()
    medium = PerfectBroadcast(engine, enforce_recorder_ack=True)
    obs = medium.obs
    rng = RngStreams(master_seed)

    registry = ProgramRegistry()
    registry.register(KERNEL_PROCESS_IMAGE, KernelProcessProgram)
    registry.register("chaos/counter", ChaosCounter)
    registry.register("chaos/driver", ChaosDriver)

    recorder_ids = list(range(90, 90 + total))
    node_ids = list(range(1, node_count + 1))
    vectors = PriorityVectors({nid: list(recorder_ids)
                               for nid in node_ids})
    recorders, managers = [], []
    for rid in recorder_ids:
        recorder = Recorder(engine, medium, RecorderConfig(
            node_id=rid, transport=TransportConfig(per_destination=True)))
        manager = RecoveryManager(engine, recorder, node_ids=node_ids)
        manager.coordinator = MultiRecorderCoordinator(engine, manager,
                                                       vectors)
        recorders.append(recorder)
        managers.append(manager)
    quorum = QuorumReplay(recorders, f=f, obs=obs)
    for manager in managers:
        manager.coordinator.quorum = quorum

    nodes = {}
    for nid in node_ids:
        config = KernelConfig(publishing=True, recorder_node=recorder_ids[0],
                              costs=CostModel(),
                              transport=TransportConfig(
                                  require_recorder_ack=True))
        nodes[nid] = Node(engine, nid, medium, config, registry)
        nodes[nid].boot()
    for manager in managers:
        manager.start()
        manager.node_restarter = lambda nid: engine.schedule(
            1000.0, nodes[nid].restart)
    engine.run(until=500.0)

    # -- workload: a counter on the last node, driven from node 1 ------
    counter_node = node_ids[-1]
    kp_c = nodes[counter_node].kernel.processes[
        kernel_pid(counter_node)].program
    counter_pid = kp_c._allocate(counter_node)
    nodes[counter_node].kernel.create_process(
        "chaos/counter", pid=counter_pid,
        initial_links=kp_c._with_nls(()))
    kp_d = nodes[node_ids[0]].kernel.processes[
        kernel_pid(node_ids[0])].program
    driver_pid = kp_d._allocate(node_ids[0])
    nodes[node_ids[0]].kernel.create_process(
        "chaos/driver", args=(tuple(counter_pid), messages),
        pid=driver_pid, initial_links=kp_d._with_nls(()))
    engine.run(until=engine.now + 200.0)

    # -- the faults -----------------------------------------------------
    faulty_ids = recorder_ids[total - byzantine:] if byzantine else []

    def _arm():
        plan = (EquivocationPlan(rng.stream("adversary/equivocation"),
                                 rate=rate) if equivocate else None)
        for recorder in recorders:
            if recorder.config.node_id not in faulty_ids:
                continue
            install_byzantine(
                recorder,
                rng.stream(f"adversary/recorder/{recorder.config.node_id}"),
                modes=modes, rate=rate, obs=obs)
            if plan is not None:
                install_equivocator(recorder, plan, obs=obs)
        obs.scope("adversary").emit(
            "armed", "campaign", recorders=list(faulty_ids),
            rate=rate, modes=list(modes))

    if faulty_ids:
        engine.schedule_at(max(byzantine_at_ms, engine.now), _arm)
    engine.schedule_at(max(crash_at_ms, engine.now),
                       nodes[counter_node].crash)

    # -- drive ----------------------------------------------------------
    def driver_program():
        pcb = nodes[node_ids[0]].kernel.processes.get(driver_pid)
        return pcb.program if pcb is not None else None

    deadline = engine.now + deadline_ms
    while engine.now < deadline:
        driver = driver_program()
        if driver is not None and len(driver.replies) >= messages:
            break
        engine.run(until=engine.now + 250.0)
    engine.run(until=engine.now + settle_ms)

    # -- judge ----------------------------------------------------------
    counter_pcb = nodes[counter_node].kernel.processes.get(counter_pid)
    total_seen = (counter_pcb.program.total
                  if counter_pcb is not None else -1)
    expected = expected_total(messages)
    exact = total_seen == expected
    snap = obs.registry.snapshot()
    divergences = int(snap.get("quorum.divergences", 0))
    unresolved = int(snap.get("quorum.unresolved", 0))
    outvoted = sorted(quorum.divergent)
    flagged_honest = [rid for rid in outvoted if rid not in faulty_ids]
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
        "faulty_ids": list(faulty_ids),
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
        "outvoted_reasons": dict(sorted(quorum.divergent.items())),
        "flagged_honest": flagged_honest,
        "recoveries_completed": sum(m.stats.recoveries_completed
                                    for m in managers),
        "messages_replayed": sum(m.stats.messages_replayed
                                 for m in managers),
        "sim_ms": engine.now,
        "ok": ok,
    }
    return QuorumScenarioResult(engine, obs, recorders, managers, nodes,
                                quorum, report)
