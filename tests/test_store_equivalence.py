"""Differential tests: the log-structured process store vs the naive
flat-list reference.

:class:`repro.publishing.database.ProcessRecord` (backed by a
:class:`~repro.publishing.store.SegmentedLog`) and
:class:`fixtures.FlatProcessLog` must give byte-identical
answers for every query — ``messages_to_replay`` order, ``consumed_ids``
sets, checkpoint invalidation counts (including the jump-ahead quirk),
``first_valid_id`` and ``valid_message_bytes`` — across arbitrary
interleavings of arrivals, in-order and advised consumptions,
checkpoints, and direct invalidations. The segmented side runs with
tiny segments (4 records) so retirement and compaction fire constantly
underneath the queries. The path recovery actually reads is in the
comparison too: a fresh ``replay_cursor()`` at every probe, and one
long-lived cursor parked mid-walk while the view is pruned under it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.demos.ids import MessageId, ProcessId
from repro.demos.messages import Message
from repro.errors import RecorderError
from repro.publishing.database import CheckpointEntry, ProcessRecord
from repro.publishing.store import SegmentedLog

from fixtures import FlatProcessLog

PID = ProcessId(2, 1)
SENDER = ProcessId(1, 1)


def make_message(seq, size=128, control=False, marker=False):
    return Message(msg_id=MessageId(SENDER, seq), src=SENDER, dst=PID,
                   channel=1, code=0, body=None, size_bytes=size,
                   deliver_to_kernel=control, recovery_marker=marker)


def make_pair(segment_records=4):
    record = ProcessRecord(pid=PID, node=2, image="img",
                           log=SegmentedLog(segment_records))
    return record, FlatProcessLog()


def checkpoint(consumed, dtk=0):
    return CheckpointEntry(data=None, consumed=consumed, dtk_processed=dtk,
                           send_seq=0, pages=1, stored_at=0.0)


def record_both(record, flat, message, arrival_index):
    seg_lm = record.record_message(message, arrival_index)
    assert seg_lm
    flat_lm = flat.record_message(message, arrival_index)
    return seg_lm, flat_lm


def drain(cursor, limit=None):
    """Up to ``limit`` records off a cursor (all it has, by default)."""
    out = []
    while limit is None or len(out) < limit:
        lm = cursor.next()
        if lm is None:
            break
        out.append(lm)
    return out


def assert_equivalent(record, flat, consumed, probe_beyond=False):
    """Every observable answer must agree between the two stores.

    ``probe_beyond`` additionally asks for more consumptions than the
    advisories cover — that speculatively extends the incremental
    simulation, so it is only sound once no further advisories will be
    added (both stores freeze the established prefix identically from
    there on, but an advisory added *afterwards* cannot rewrite the
    segmented store's already-established order, by design: checkpoint
    consumed-counts in production never run ahead of their advisories).
    """
    seg_replay = [lm.message.msg_id for lm in record.messages_to_replay()]
    flat_replay = [lm.message.msg_id for lm in flat.messages_to_replay()]
    assert seg_replay == flat_replay
    # a fresh cursor starts at the first valid record and yields the
    # survivors, valid or not, each once: its valid yield is the replay
    walked = drain(record.replay_cursor())
    assert len({lm.seq for lm in walked}) == len(walked)
    assert [lm for lm in walked if not lm.invalid] \
        == record.messages_to_replay()
    assert record.first_valid_id() == flat.first_valid_id()
    assert record.valid_message_bytes() == flat.valid_message_bytes()
    counts = {0, consumed // 2, consumed}
    if probe_beyond:
        counts.add(consumed + 3)
    for count in sorted(counts):
        assert record.consumed_ids(count) == flat.consumed_ids(count)


def _run_pair(seed, ops):
    """Drive both stores through one seeded operation interleaving."""
    rng = random.Random(seed)
    walk_rng = random.Random(seed + 1)    # leaves the interleaving alone
    record, flat = make_pair()
    cursor = record.replay_cursor()       # opened before anything arrives
    walked = []
    seg_lms, flat_lms = [], []
    model_queue = []          # msg_ids of queue-eligible messages, FIFO
    consumed = 0
    controls_seen = 0
    dtk_done = 0
    next_seq = 1
    arrival = 0
    advisories_ok = True      # cleared after a jump-ahead checkpoint

    for _ in range(ops):
        if walk_rng.random() < 0.2:
            # slower than arrivals come in: the cursor stays parked
            # mid-walk while prunes and compactions run under it
            walked += drain(cursor, limit=walk_rng.randrange(1, 4))
        roll = rng.random()
        if roll < 0.45 or not model_queue:
            # arrival: queue message, control, or marker
            kind = rng.random()
            message = make_message(
                next_seq, size=rng.choice((64, 128, 256, 1024)),
                control=kind < 0.10, marker=0.10 <= kind < 0.15)
            next_seq += 1
            seg_lm, flat_lm = record_both(record, flat, message, arrival)
            arrival += 1
            seg_lms.append(seg_lm)
            flat_lms.append(flat_lm)
            if message.deliver_to_kernel:
                controls_seen += 1
            elif not message.recovery_marker:
                model_queue.append(message.msg_id)
        elif roll < 0.75:
            # consumption: in order, or advised out-of-order
            if (advisories_ok and len(model_queue) > 1
                    and rng.random() < 0.30):
                j = rng.randrange(1, min(len(model_queue), 5))
                read_id = model_queue.pop(j)
                record.add_advisory(read_id, model_queue[0])
                flat.add_advisory(read_id, model_queue[0])
            else:
                model_queue.pop(0)
            consumed += 1
        elif roll < 0.88:
            # checkpoint: usually the true consumed count, sometimes a
            # regression (no-op territory) or a jump ahead of what the
            # advisories can establish (the quirk path)
            shape = rng.random()
            if shape < 0.70:
                target = consumed
            elif shape < 0.85:
                target = rng.randint(0, consumed)
            else:
                target = consumed + rng.randint(1, 3)
                advisories_ok = False   # model queue diverges past here
            dtk = rng.randint(dtk_done, controls_seen)
            dtk_done = max(dtk_done, dtk)
            seg_count = record.apply_checkpoint(checkpoint(target, dtk))
            flat_count = flat.apply_checkpoint(target, dtk)
            assert seg_count == flat_count
        elif roll < 0.94 and seg_lms:
            # direct invalidation (process destruction path)
            i = rng.randrange(len(seg_lms))
            seg_lms[i].invalid = True
            flat_lms[i].invalid = True
        else:
            assert_equivalent(record, flat, consumed)

    assert_equivalent(record, flat, consumed, probe_beyond=True)
    assert record.log.live_records == len(flat.messages_to_replay())
    # everything arrived after the parked cursor opened: whatever is
    # valid now it yielded exactly once, and nothing twice
    walked += drain(cursor)
    seqs = [lm.seq for lm in walked]
    assert seqs == sorted(set(seqs))
    assert [lm for lm in walked if not lm.invalid] \
        == record.messages_to_replay()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000_000), ops=st.integers(1, 300))
def test_segmented_store_matches_flat_reference(seed, ops):
    _run_pair(seed, ops)


def test_long_interleaving_with_heavy_compaction():
    # one long deterministic run: enough invalidation to force many
    # segment retirements and compactions under the tiny segment size
    _run_pair(seed=1983, ops=2000)


class TestAdvisoryMismatch:
    def test_both_raise_and_both_recover(self):
        record, flat = make_pair()
        m1, m2, m3 = (make_message(i) for i in (1, 2, 3))
        record_both(record, flat, m1, 0)
        record_both(record, flat, m2, 1)
        # advisory claims m3 was read past head m1 — but m3 not arrived
        record.add_advisory(m3.msg_id, m1.msg_id)
        flat.add_advisory(m3.msg_id, m1.msg_id)
        with pytest.raises(RecorderError):
            record.consumed_ids(1)
        with pytest.raises(RecorderError):
            flat.consumed_ids(1)
        # retry must fail identically: the mismatch does not advance
        with pytest.raises(RecorderError):
            record.consumed_ids(1)
        # ...and resolves once the missing message arrives
        record_both(record, flat, m3, 2)
        assert record.consumed_ids(2) == flat.consumed_ids(2) \
            == {m3.msg_id, m1.msg_id}


class TestJumpAheadQuirk:
    def test_regressing_checkpoint_is_inert_on_both(self):
        record, flat = make_pair()
        for i in range(1, 7):
            record_both(record, flat, make_message(i), i - 1)
        assert record.apply_checkpoint(checkpoint(4)) \
            == flat.apply_checkpoint(4) == 4
        # a later, smaller checkpoint covers nothing new
        assert record.apply_checkpoint(checkpoint(2)) \
            == flat.apply_checkpoint(2) == 0
        # re-reaching the old high-water mark also covers nothing new
        assert record.apply_checkpoint(checkpoint(4)) \
            == flat.apply_checkpoint(4) == 0
        assert record.apply_checkpoint(checkpoint(6)) \
            == flat.apply_checkpoint(6) == 2
        assert_equivalent(record, flat, 6)


class TestCompactionTransparency:
    def test_replay_unchanged_across_forced_compaction(self):
        record, flat = make_pair(segment_records=4)
        for i in range(1, 41):
            record_both(record, flat, make_message(i), i - 1)
        segments_before = record.log.segments
        # invalidate a long prefix: whole segments retire, the boundary
        # segment compacts, and the answers must not move
        assert record.apply_checkpoint(checkpoint(30)) \
            == flat.apply_checkpoint(30) == 30
        assert record.log.segments < segments_before
        assert record.log.segments_retired > 0
        assert_equivalent(record, flat, 30)
