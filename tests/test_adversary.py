"""Adversarial recorders: Byzantine stages, 2f+1 quorum replay, and the
differential harness proving the headline invariant — recovery rebuilds
digest-identical process state to the fault-free run whenever at most f
of 2f+1 recorders are faulty, and *detectably flags* (never silently
corrupts) when f is exceeded.

The property layer runs engine-less: one ground-truth message stream is
fed through per-recorder adversary stages via ``feed_record``, and
``quorum_replay_stream`` votes the logs back together. The integration
layer drives the full simulation (``run_quorum_scenario``): a real
node crash forces recovery through the quorum cursor mid-traffic.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos.adversary import (
    BYZANTINE_MODES,
    ByzantineRecorder,
    feed_record,
    run_quorum_scenario,
)
from repro.demos.ids import MessageId, ProcessId
from repro.demos.messages import Message
from repro.errors import ReproError
from repro.publishing.database import RecorderDatabase
from repro.publishing.multi_recorder import (
    process_state_digest,
    quorum_replay_stream,
)

SENDER = ProcessId(1, 5)
TARGET = ProcessId(2, 9)


def make_message(seq, body=None, marker=False):
    return Message(msg_id=MessageId(SENDER, seq), src=SENDER, dst=TARGET,
                   channel=0, code=1,
                   body=body if body is not None else ("add", seq),
                   size_bytes=24, recovery_marker=marker)


def build_log(n, stage=None, markers=()):
    """One recorder's view of a ground-truth stream of ``n`` messages,
    fed through an optional adversary stage."""
    db = RecorderDatabase()
    record = db.create(TARGET, node=TARGET.node, image="test/counter")
    for i in range(1, n + 1):
        feed_record(record, db, make_message(i), stage=stage)
        if i in markers:
            feed_record(record, db, make_message(1000 + i, marker=True))
    return db, record


def truth_digest(n, markers=()):
    _, record = build_log(n, markers=markers)
    return process_state_digest(record.arrivals)


# ----------------------------------------------------------------------
# the tentpole property: <=f faulty of 2f+1 => digest-identical recovery
# ----------------------------------------------------------------------
def build_members(f, n, faulty, seed, modes, rate, markers=()):
    """2f+1 recorder logs; each index in ``faulty`` gets an independent
    :class:`ByzantineRecorder` stage."""
    total = 2 * f + 1
    members = []
    for k in range(total):
        stage = None
        if k in faulty:
            stage = ByzantineRecorder(random.Random(seed * 1000003 + k),
                                      modes=modes, rate=rate)
        _, record = build_log(n, stage=stage, markers=markers)
        members.append((90 + k, record))
    return members


case_strategy = dict(
    f=st.integers(1, 2),
    n=st.integers(1, 30),
    seed=st.integers(0, 2**31 - 1),
    modes=st.lists(st.sampled_from(BYZANTINE_MODES),
                   min_size=1, max_size=len(BYZANTINE_MODES), unique=True),
    rate=st.floats(0.05, 0.9),
    data=st.data(),
)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**case_strategy)
def test_at_most_f_faulty_recovers_digest_identical(
        f, n, seed, modes, rate, data):
    """The headline invariant: any <=f faulty subset — including the
    primary — leaves the quorum stream digest-identical to the
    fault-free run, with no unresolved votes and no honest recorder
    flagged."""
    total = 2 * f + 1
    count = data.draw(st.integers(0, f), label="faulty_count")
    faulty = set(data.draw(
        st.permutations(range(total)), label="faulty_members")[:count])
    members = build_members(f, n, faulty, seed, tuple(modes), rate)
    verdict = quorum_replay_stream(members, f=f)
    assert process_state_digest(verdict.stream) == truth_digest(n)
    assert verdict.replayed == n
    assert verdict.unresolved == 0
    assert set(verdict.divergent) <= {90 + k for k in faulty}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**case_strategy)
def test_beyond_f_faulty_is_flagged_never_silent(
        f, n, seed, modes, rate, data):
    """Past the design point the quorum may lose — but never silently:
    either the majority still rebuilt the true state, or divergence /
    unresolved flags fired. A wrong digest with a clean verdict is the
    one forbidden outcome."""
    total = 2 * f + 1
    count = data.draw(st.integers(f + 1, total - 1), label="faulty_count")
    faulty = set(data.draw(
        st.permutations(range(total)), label="faulty_members")[:count])
    members = build_members(f, n, seed=seed, faulty=faulty,
                            modes=tuple(modes), rate=rate)
    verdict = quorum_replay_stream(members, f=f)
    corrupted = process_state_digest(verdict.stream) != truth_digest(n)
    detected = bool(verdict.divergent) or verdict.unresolved > 0
    assert detected or not corrupted, \
        "beyond-f corruption passed without a divergence flag"


@pytest.mark.parametrize("fault", ["corrupt", "bitrot", "reorder"])
def test_warm_images_do_not_hide_a_faulty_recorder(fault):
    """On the medium every recorder hears the same ``Message`` object,
    and by replay time it carries its image: framed by the sender,
    digested at each append, verified by each cursor. The faulty
    recorder's copy still loses the vote, whether it rewrote a body or
    the order of the log."""
    from repro.net.frames import Frame, FrameKind
    from repro.net.transport import Segment
    n = 12
    messages = [make_message(i) for i in range(1, n + 1)]
    for m in messages:
        Frame(FrameKind.DATA, 1, 2,
              Segment(("m", m.msg_id.seq), 1, 2, m), m.size_bytes)
    members = []
    for k in range(3):
        stage = None
        if k == 2:
            stage = ByzantineRecorder(random.Random(7), modes=(fault,),
                                      rate=1.0)
        db = RecorderDatabase()
        record = db.create(TARGET, node=TARGET.node, image="test/counter")
        for m in messages:
            feed_record(record, db, m, stage=stage)
        members.append((90 + k, record))
    for _, record in members[:2]:
        cursor = record.replay_cursor(verify=True)
        while cursor.next() is not None:
            pass
    assert all(m._wire_image for m in messages)
    verdict = quorum_replay_stream(members, f=1)
    assert process_state_digest(verdict.stream) == truth_digest(n)
    assert verdict.replayed == n and verdict.unresolved == 0
    assert set(verdict.divergent) == {92}


def test_quorum_survives_markers_interleaved():
    """Recovery markers ride the same logs; an adversary touching data
    records must not unseat marker agreement (markers are exempt from
    interception by contract)."""
    markers = (3, 7)
    faulty = {2}
    members = build_members(1, 10, faulty, seed=5,
                            modes=("corrupt", "drop"), rate=0.5,
                            markers=markers)
    verdict = quorum_replay_stream(members, f=1)
    assert process_state_digest(verdict.stream) == truth_digest(
        10, markers=markers)
    marker_count = sum(1 for lm in verdict.stream if lm.is_marker)
    assert marker_count == len(markers)
    assert verdict.unresolved == 0


def test_quorum_replay_needs_2f_plus_1():
    from repro.errors import QuorumDivergenceError
    _, record = build_log(3)
    with pytest.raises(QuorumDivergenceError):
        quorum_replay_stream([(90, record)], f=1)


def test_byzantine_stage_is_seed_pure():
    """Same rng seed => bit-identical fault schedule and logs."""
    def once():
        stage = ByzantineRecorder(random.Random(77), rate=0.5)
        _, record = build_log(25, stage=stage)
        return (stage.faults_injected,
                [(lm.message.msg_id.seq, lm.message.body, lm.invalid)
                 for lm in record.arrivals])
    assert once() == once()


def test_recorder_stages_chain_in_order():
    """Each armed stage transforms what the previous one passed on:
    corrupted first, then doubled (the second copy forced past
    dedup)."""
    recorder = make_recorder()
    recorder.stages.append(ByzantineRecorder(random.Random(4),
                                             modes=("corrupt",), rate=1.0))
    recorder.stages.append(ByzantineRecorder(random.Random(8),
                                             modes=("duplicate",), rate=1.0))
    record = recorder.db.create(TARGET, node=TARGET.node, image="t")
    logged = list(recorder.db.deliver(make_message(1),
                                      lambda _message: record,
                                      recorder.stages))
    assert len(logged) == 2                    # corrupted, then doubled
    assert all(lm.message.body[0] == "corrupt" for lm in logged)
    assert [lm.message for lm in record.arrivals] == [logged[0].message] * 2


def test_deliver_files_a_held_back_message_under_its_own_process():
    """A ``reorder`` stage releases what it held on a *later* delivery,
    which may be another process's: the one door looks the record up
    per logged message, not per incoming one."""
    from dataclasses import replace
    db = RecorderDatabase()
    other = ProcessId(2, 10)
    ours = db.create(TARGET, node=TARGET.node, image="t")
    theirs = db.create(other, node=other.node, image="t")
    stage = ByzantineRecorder(random.Random(0), modes=("reorder",), rate=1.0)
    to_ours = make_message(1)
    to_theirs = replace(make_message(2), dst=other)

    def entry_of(message):
        return db.get(message.dst)

    assert list(db.deliver(to_ours, entry_of, [stage])) == []  # held back
    logged = list(db.deliver(to_theirs, entry_of, [stage]))
    assert [lm.message for lm in logged] == [to_theirs, to_ours]
    assert [lm.message for lm in theirs.arrivals] == [to_theirs]
    assert [lm.message for lm in ours.arrivals] == [to_ours]


def test_deliver_notifies_the_stage_after_its_caller_saw_the_record():
    """``bitrot`` mangles the stored copy in ``note_confirmed``: the
    caller announces the record (arrival signal, ``publish`` event)
    first and the rot sets in when it comes back for the next."""
    db = RecorderDatabase()
    record = db.create(TARGET, node=TARGET.node, image="t")
    stage = ByzantineRecorder(random.Random(0), modes=("bitrot",), rate=1.0)
    message = make_message(1)
    door = db.deliver(message, lambda _message: record, [stage])
    lm = next(door)
    assert lm.message is message
    assert next(door, None) is None
    assert lm.message.body == ("bitrot", message.body)


def test_gossip_repairs_pass_the_stages():
    """A repaired record enters the log through the same door as an
    observed delivery, so an armed stage faults it too; a repair of a
    record already logged is counted as a duplicate, not logged."""
    recorder = make_recorder()
    recorder.stages.append(ByzantineRecorder(random.Random(2),
                                             modes=("corrupt",), rate=1.0))
    assert recorder.record_repair(make_message(1))
    record = recorder.db.get(TARGET)
    assert [lm.message.body[0] for lm in record.arrivals] == ["corrupt"]
    assert not recorder.record_repair(make_message(1))
    assert recorder.duplicates_ignored.value == 1
    assert len(record.arrivals) == 1


def test_unknown_byzantine_mode_rejected():
    with pytest.raises(ValueError):
        ByzantineRecorder(random.Random(1), modes=("gaslight",))


@pytest.mark.parametrize("build", [
    lambda: ByzantineRecorder(random.Random(1), modes=("gaslight",)),
    lambda: ByzantineRecorder(random.Random(1), modes=()),
    lambda: run_quorum_scenario(f=1, byzantine=4),
    lambda: run_quorum_scenario(f=0, byzantine=0),
], ids=["unknown_mode", "no_modes", "more_faulty_than_recorders",
        "no_quorum_to_run"])
def test_adversary_misconfiguration_is_a_typed_error(build):
    """In the library's tree (``except ReproError`` sees it) and still
    the ``ValueError`` it always was."""
    with pytest.raises(ReproError) as error:
        build()
    assert isinstance(error.value, ValueError)


def make_recorder():
    from repro.net.media import PerfectBroadcast
    from repro.net.transport import TransportConfig
    from repro.publishing.recorder import Recorder, RecorderConfig
    from repro.sim.engine import Engine
    engine = Engine()
    medium = PerfectBroadcast(engine)
    return Recorder(engine, medium, RecorderConfig(
        node_id=90, transport=TransportConfig(per_destination=True)),
        claim=range(TARGET.node, TARGET.node + 1))


# ----------------------------------------------------------------------
# gossip buffers under a hard cap: eviction never breaks the
# set-convergence contract of tests/test_gossip.py
# ----------------------------------------------------------------------
def run_gossip(seed, n, loss_rate, depth):
    from repro import SystemConfig
    from repro.chaos import ChaosCampaign, run_scenario
    config = SystemConfig(nodes=2, master_seed=seed,
                          gossip=loss_rate is not None,
                          gossip_loss_rate=loss_rate or 0.0,
                          gossip_buffer_depth=depth, gossip_round_ms=100.0,
                          gossip_max_retries=16)
    return run_scenario(ChaosCampaign([], name="bounded_gossip"), config,
                        pairs=1, messages=n)


def gossip_recorded_sets(system):
    return {pid: set(record.recorded_ids)
            for pid, record in system.recorder.db.records.items()}


@pytest.mark.parametrize("depth", [4, 12])
def test_capped_gossip_buffer_converges_or_reports(depth):
    """With the ring capped hard, repair either still converges to the
    lossless recorded sets or the shortfall is *reported* (gave_up /
    outstanding) — a silent divergence is the only failure."""
    lossless = run_gossip(29, 10, None, depth)
    assert lossless.ok, lossless.report.to_dict()
    lossy = run_gossip(29, 10, 0.25, depth)
    snap = lossy.system.metrics_snapshot()
    converged = (snap["gossip.outstanding"] == 0
                 and snap["gossip.gave_up"] == 0)
    if converged:
        assert (gossip_recorded_sets(lossy.system)
                == gossip_recorded_sets(lossless.system))
    else:
        assert snap["gossip.gave_up"] > 0 or snap["gossip.outstanding"] > 0
    assert lossy.totals == [lossy.expected]      # delivery never corrupts


# ----------------------------------------------------------------------
# integration: the full simulation, recovery replaying through the vote
# ----------------------------------------------------------------------
class TestQuorumScenario:
    def test_fault_free_baseline_exact(self):
        system, r = run_quorum_scenario(f=1, byzantine=0, messages=20,
                                        master_seed=7)
        assert r["ok"] and r["exact"], r
        assert r["quorum_divergences"] == 0
        assert r["outvoted"] == []

    def test_one_byzantine_of_three_recovers_exactly(self):
        system, r = run_quorum_scenario(f=1, byzantine=1, messages=20,
                                        master_seed=7)
        assert r["ok"] and r["exact"], r
        assert r["faults_injected"] > 0
        assert r["outvoted"] == [92]             # only the faulty one
        assert r["flagged_honest"] == []
        # the spine events name the outvoted recorder
        divergence = [e for e in system.obs.bus.events
                      if e.scope == "quorum" and e.category == "divergence"]
        assert divergence
        assert {e.subject for e in divergence} == {"recorder92"}

    def test_thirty_messages_at_seed_1983_pinned(self):
        system, r = run_quorum_scenario(f=1, byzantine=1, messages=30,
                                        master_seed=1983)
        assert (r["total"], r["outvoted"], r["messages_replayed"],
                r["quorum_stale_skips"], r["quorum_unresolved"]) \
            == (465, [92], 30, 1, 0)
        assert system.engine.events_fired == 687
        assert r["sim_ms"] == 7000.0

    def test_beyond_f_detected_never_silent(self):
        system, r = run_quorum_scenario(f=1, byzantine=2, messages=20,
                                        master_seed=7)
        assert r["ok"], r
        if not r["exact"]:
            assert (r["quorum_divergences"] > 0
                    or r["quorum_unresolved"] > 0)

    def test_two_byzantine_of_five_recover_exactly(self):
        system, r = run_quorum_scenario(f=2, byzantine=2, messages=20,
                                        master_seed=7)
        assert r["recorders"] == 5 and r["faulty_ids"] == [93, 94]
        assert len(system.recorders) == 5
        assert system.quorum.f == 2       # derived, not configured
        assert r["ok"] and r["exact"], r
        assert r["faults_injected"] > 0
        assert r["outvoted"] and set(r["outvoted"]) <= {93, 94}
        assert r["flagged_honest"] == []

    def test_two_runs_bit_identical(self):
        a, report_a = run_quorum_scenario(f=1, byzantine=1, messages=15,
                                          master_seed=42)
        b, report_b = run_quorum_scenario(f=1, byzantine=1, messages=15,
                                          master_seed=42)
        assert a.obs.bus.to_jsonl() == b.obs.bus.to_jsonl()
        assert report_a == report_b
