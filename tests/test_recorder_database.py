"""Tests for the recorder database: recording, advisories, the queue
re-simulation, invalidation, and replay streams."""

import pytest

from repro.demos.ids import MessageId, ProcessId
from repro.demos.messages import Message
from repro.publishing.database import (
    CheckpointEntry,
    ProcessRecord,
    RecorderDatabase,
)
from repro.errors import RecorderError

PID = ProcessId(2, 1)
SENDER = ProcessId(1, 1)


def make_message(seq, channel=0, dtk=False, marker=False):
    return Message(msg_id=MessageId(SENDER, seq), src=SENDER, dst=PID,
                   channel=channel, code=0, body=("b", seq),
                   deliver_to_kernel=dtk, recovery_marker=marker)


def make_record(messages=()):
    record = ProcessRecord(pid=PID, node=2, image="img")
    for message in messages:
        record.record_message(message)
    return record


def checkpoint(consumed, dtk=0, send_seq=0):
    return CheckpointEntry(data={}, consumed=consumed, dtk_processed=dtk,
                           send_seq=send_seq, pages=4, stored_at=0.0)


def consumed_ids(record, count):
    """The messages the queue re-simulation finds were the first
    ``count`` consumptions: the ones a checkpoint at ``count``
    invalidates (with no control messages covered)."""
    record.apply_checkpoint(checkpoint(count))
    return record.recorded_ids - {lm.message.msg_id
                                  for lm in record.messages_to_replay()}


class TestRecording:
    def test_duplicates_rejected(self):
        record = make_record()
        m = make_message(1)
        assert record.record_message(m)
        assert not record.record_message(m)
        assert len(record.arrivals) == 1

    def test_only_the_keyword_forces_a_duplicate(self):
        # a stale positional argument (the old arrival index) lands in
        # the ignored slot, not in ``forced``
        record = make_record()
        m = make_message(1)
        assert record.record_message(m, 0)
        assert not record.record_message(m, 7)
        assert record.record_message(m, forced=True)
        assert len(record.arrivals) == 2


class TestConsumedSimulation:
    def test_in_order_consumption(self):
        record = make_record([make_message(i) for i in range(1, 5)])
        consumed = consumed_ids(record, 2)
        assert consumed == {MessageId(SENDER, 1), MessageId(SENDER, 2)}

    def test_single_out_of_order_read(self):
        """Messages 1,2,3 arrive; the process reads 3 (channel skip),
        then 1, then 2."""
        record = make_record([
            make_message(1, channel=0),
            make_message(2, channel=0),
            make_message(3, channel=5),
        ])
        record.add_advisory(MessageId(SENDER, 3), MessageId(SENDER, 1))
        assert consumed_ids(record, 1) == {MessageId(SENDER, 3)}
        assert consumed_ids(record, 2) == {MessageId(SENDER, 3),
                                           MessageId(SENDER, 1)}

    def test_consecutive_skips_same_head(self):
        record = make_record([make_message(i) for i in range(1, 6)])
        record.add_advisory(MessageId(SENDER, 4), MessageId(SENDER, 1))
        record.add_advisory(MessageId(SENDER, 5), MessageId(SENDER, 1))
        assert consumed_ids(record, 3) == {MessageId(SENDER, 4),
                                           MessageId(SENDER, 5),
                                           MessageId(SENDER, 1)}

    def test_interleaved_plain_and_skip_reads(self):
        """Read 1 plain, skip to 4 (head 2), read 2, read 3."""
        record = make_record([make_message(i) for i in range(1, 5)])
        record.add_advisory(MessageId(SENDER, 4), MessageId(SENDER, 2))
        assert consumed_ids(record, 2) == {MessageId(SENDER, 1),
                                           MessageId(SENDER, 4)}
        assert consumed_ids(record, 4) == {MessageId(SENDER, i)
                                           for i in range(1, 5)}

    def test_dtk_and_markers_excluded_from_queue(self):
        record = make_record([
            make_message(1),
            make_message(2, dtk=True),
            make_message(3, marker=True),
            make_message(4),
        ])
        assert consumed_ids(record, 2) == {MessageId(SENDER, 1),
                                           MessageId(SENDER, 4)}

    def test_mismatched_advisory_raises(self):
        record = make_record([make_message(1), make_message(2)])
        record.add_advisory(MessageId(SENDER, 99), MessageId(SENDER, 1))
        with pytest.raises(RecorderError):
            consumed_ids(record, 1)


class TestInvalidation:
    def test_checkpoint_invalidates_consumed_prefix(self):
        record = make_record([make_message(i) for i in range(1, 6)])
        invalidated = record.apply_checkpoint(checkpoint(consumed=3))
        assert invalidated == 3
        valid = [lm.message.msg_id.seq for lm in record.messages_to_replay()]
        assert valid == [4, 5]

    def test_second_checkpoint_extends_invalidation(self):
        record = make_record([make_message(i) for i in range(1, 8)])
        record.apply_checkpoint(checkpoint(consumed=2))
        invalidated = record.apply_checkpoint(checkpoint(consumed=5))
        assert invalidated == 3
        valid = [lm.message.msg_id.seq for lm in record.messages_to_replay()]
        assert valid == [6, 7]

    def test_unconsumed_messages_survive_checkpoint(self):
        """§3.1: messages sent but "not read by the process before the
        checkpoint was taken" must be replayed."""
        record = make_record([make_message(i) for i in range(1, 4)])
        record.apply_checkpoint(checkpoint(consumed=1))
        valid = [lm.message.msg_id.seq for lm in record.messages_to_replay()]
        assert valid == [2, 3]

    def test_dtk_invalidated_by_count(self):
        record = make_record([
            make_message(1, dtk=True),
            make_message(2),
            make_message(3, dtk=True),
        ])
        record.apply_checkpoint(checkpoint(consumed=0, dtk=1))
        valid = [lm.message.msg_id.seq for lm in record.messages_to_replay()]
        assert valid == [2, 3]

    def test_out_of_order_consumption_invalidated_correctly(self):
        record = make_record([
            make_message(1), make_message(2), make_message(3, channel=5),
        ])
        record.add_advisory(MessageId(SENDER, 3), MessageId(SENDER, 1))
        record.apply_checkpoint(checkpoint(consumed=1))
        valid = [lm.message.msg_id.seq for lm in record.messages_to_replay()]
        assert valid == [1, 2]          # 3 was consumed first

    def test_valid_bytes_accounting(self):
        record = make_record([make_message(i) for i in range(1, 4)])
        assert record.valid_message_bytes() == 3 * 128
        record.apply_checkpoint(checkpoint(consumed=2))
        assert record.valid_message_bytes() == 128


class TestDatabase:
    def test_create_is_idempotent(self):
        db = RecorderDatabase()
        a = db.create(PID, node=2, image="img")
        b = db.create(PID, node=2, image="img")
        assert a is b

    def test_destroyed_record_can_be_replaced(self):
        db = RecorderDatabase()
        a = db.create(PID, node=2, image="img")
        a.destroyed = True
        b = db.create(PID, node=2, image="img2")
        assert b is not a and b.image == "img2"

    def test_a_notice_fills_a_placeholder_and_keeps_its_log(self):
        """Traffic heard before the creation notice makes a placeholder
        (image ""); the notice, or a federation's remote recovery,
        fills in all six metadata fields through ``create`` — once."""
        db = RecorderDatabase()
        placeholder = db.create(PID, node=PID.node, image="")
        placeholder.record_message(make_message(1))
        record = db.create(PID, node=7, image="img", args=[1],
                           initial_links=[], recoverable=False,
                           state_pages=9)
        assert record is placeholder and len(record.arrivals) == 1
        assert (record.node, record.image, record.args, record.initial_links,
                record.recoverable, record.state_pages) == (
                    7, "img", (1,), (), False, 9)
        assert db.create(PID, node=2, image="other").image == "img"

    def test_processes_on_filters(self):
        db = RecorderDatabase()
        db.create(ProcessId(1, 1), node=1, image="a")
        db.create(ProcessId(2, 1), node=2, image="b")
        unrec = db.create(ProcessId(1, 2), node=1, image="c",
                          recoverable=False)
        on_1 = db.processes_on(1)
        assert [r.image for r in on_1] == ["a"]
