"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.demos.ids import MessageId, ProcessId
from repro.demos.links import Link, LinkTable
from repro.demos.messages import Message
from repro.demos.queue import MessageQueue
from repro.net.frames import Frame, FrameKind, crc16
from repro.publishing.checkpoints import young_interval
from repro.publishing.database import CheckpointEntry, ProcessRecord
from repro.publishing.recovery_time import RecoveryTimeModel

PID = ProcessId(2, 1)
SENDER = ProcessId(1, 1)


def queue_message(seq, channel):
    return Message(msg_id=MessageId(SENDER, seq), src=SENDER, dst=PID,
                   channel=channel, code=0, body=("b", seq))


def test_properties_run_the_same_examples_every_time():
    """Tier-1 is a pure function of the code: ``conftest.py`` loads a
    profile that draws no fresh seed and keeps no example database."""
    assert settings.default.derandomize
    assert settings.default.database is None


@given(st.binary(max_size=256))
def test_crc_deterministic(data):
    assert crc16(data) == crc16(data)


@given(st.binary(min_size=1, max_size=64), st.integers(0, 7))
def test_crc_detects_single_bit_flip(data, bit):
    flipped = bytearray(data)
    flipped[0] ^= 1 << bit
    assert crc16(data) != crc16(bytes(flipped))


@given(st.text(min_size=1, max_size=40))
def test_frame_checksum_roundtrip(payload):
    frame = Frame(kind=FrameKind.DATA, src_node=1, dst_node=2,
                  payload=payload, size_bytes=64)
    assert frame.checksum_ok()
    frame.corrupt()
    assert not frame.checksum_ok()


@given(st.lists(st.integers(0, 3), min_size=1, max_size=30))
def test_queue_unfiltered_receive_is_fifo(channels):
    q = MessageQueue()
    for seq, channel in enumerate(channels, start=1):
        q.append(queue_message(seq, channel))
    taken = []
    while True:
        message, was_head = q.take_next(None)
        if message is None:
            break
        assert was_head
        taken.append(message.msg_id.seq)
    assert taken == list(range(1, len(channels) + 1))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=30),
       st.sets(st.integers(0, 3), min_size=1, max_size=4))
def test_queue_filter_preserves_relative_order(channels, mask):
    q = MessageQueue()
    for seq, channel in enumerate(channels, start=1):
        q.append(queue_message(seq, channel))
    taken = []
    while True:
        message, _ = q.take_next(mask)
        if message is None:
            break
        taken.append(message.msg_id.seq)
    expected = [seq for seq, ch in enumerate(channels, start=1) if ch in mask]
    assert taken == expected
    # Non-matching messages remain, in order.
    leftovers = []
    while q:
        leftovers.append(q.take_next(None)[0].msg_id.seq)
    assert leftovers == [seq for seq, ch in enumerate(channels, start=1)
                         if ch not in mask]


@given(st.lists(st.booleans(), min_size=1, max_size=40))
def test_link_table_ids_strictly_increase(removals):
    table = LinkTable()
    issued = []
    for remove in removals:
        lid = table.insert(Link(dst=PID))
        issued.append(lid)
        if remove:
            table.remove(lid)
    assert issued == sorted(issued)
    assert len(set(issued)) == len(issued)


@given(st.floats(0.1, 1e5), st.floats(0.1, 1e8))
def test_young_interval_positive_and_symmetric_scaling(ts, tf):
    t = young_interval(ts, tf)
    assert t > 0
    assert young_interval(4 * ts, tf) == math.sqrt(4) * t or True
    assert abs(young_interval(4 * ts, tf) - 2 * t) < 1e-6 * max(1.0, t)


@given(st.integers(0, 64), st.integers(0, 500), st.integers(0, 10 ** 6),
       st.floats(0, 1e5))
def test_recovery_time_monotone(pages, msgs, msg_bytes, exec_ms):
    model = RecoveryTimeModel()
    base = model.t_max_ms(pages, msgs, msg_bytes, exec_ms)
    assert model.t_max_ms(pages + 1, msgs, msg_bytes, exec_ms) >= base
    assert model.t_max_ms(pages, msgs + 1, msg_bytes, exec_ms) >= base
    assert model.t_max_ms(pages, msgs, msg_bytes + 100, exec_ms) >= base
    assert model.t_max_ms(pages, msgs, msg_bytes, exec_ms + 1) >= base


# ---------------------------------------------------------------------------
# The queue-simulation invariant: for any arrival pattern and any legal
# read pattern (random channel masks), the recorder's reconstruction of
# the consumed set matches ground truth.
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=16),
       st.data())
def test_consumed_reconstruction_matches_ground_truth(channels, data):
    record = ProcessRecord(pid=PID, node=2, image="img")
    messages = [queue_message(seq, ch)
                for seq, ch in enumerate(channels, start=1)]
    for index, message in enumerate(messages):
        record.record_message(message, index)

    # Ground truth: simulate a process doing channel-selective reads.
    queue = list(messages)
    consumed_truth = []
    reads = data.draw(st.integers(0, len(messages)))
    for _ in range(reads):
        if not queue:
            break
        mask = data.draw(st.sets(st.integers(0, 2), min_size=1, max_size=3))
        chosen = next((m for m in queue if m.channel in mask), None)
        if chosen is None:
            chosen = queue[0]            # fall back to an open receive
        if chosen is not queue[0]:
            record.add_advisory(chosen.msg_id, queue[0].msg_id)
        queue.remove(chosen)
        consumed_truth.append(chosen.msg_id)

    # A checkpoint at the consumed count invalidates exactly the consumed
    # messages, and leaves exactly the unconsumed ones valid.
    entry = CheckpointEntry(data={}, consumed=len(consumed_truth),
                            dtk_processed=0, send_seq=0, pages=1,
                            stored_at=0.0)
    assert record.apply_checkpoint(entry) == len(consumed_truth)
    valid = {lm.message.msg_id for lm in record.messages_to_replay()}
    assert record.recorded_ids - valid == set(consumed_truth)
    assert valid == {m.msg_id for m in queue}
