"""Tests for links, link tables, message queues, and identifiers."""

import pytest

from repro.demos.ids import MessageId, ProcessId, kernel_pid
from repro.demos.links import Link, LinkTable
from repro.demos.messages import Message
from repro.demos.queue import MessageQueue
from repro.errors import LinkError


def msg(seq, channel=0, sender=ProcessId(1, 1), dst=ProcessId(2, 1)):
    return Message(msg_id=MessageId(sender, seq), src=sender, dst=dst,
                   channel=channel, code=0, body=("b", seq))


class TestIds:
    def test_pid_fields(self):
        pid = ProcessId(3, 7)
        assert pid.node == 3 and pid.local == 7
        assert str(pid) == "3.7"

    def test_kernel_pid(self):
        assert kernel_pid(4) == ProcessId(4, 0)

    def test_message_id_ordering_fields(self):
        mid = MessageId(ProcessId(1, 2), 9)
        assert mid.sender == ProcessId(1, 2) and mid.seq == 9


class TestLinkTable:
    def test_insert_assigns_sequential_ids(self):
        table = LinkTable()
        a = table.insert(Link(dst=ProcessId(1, 1)))
        b = table.insert(Link(dst=ProcessId(1, 2)))
        assert (a, b) == (1, 2)

    def test_get_and_remove(self):
        table = LinkTable()
        link = Link(dst=ProcessId(1, 1), channel=3, code=9)
        lid = table.insert(link)
        assert table.get(lid) is link
        assert table.remove(lid) is link
        assert not table.has(lid)

    def test_missing_id_raises(self):
        table = LinkTable()
        with pytest.raises(LinkError):
            table.get(42)
        with pytest.raises(LinkError):
            table.remove(42)

    def test_ids_never_reused_after_removal(self):
        """A recovered process must observe identical link ids, so ids
        are never recycled."""
        table = LinkTable()
        a = table.insert(Link(dst=ProcessId(1, 1)))
        table.remove(a)
        b = table.insert(Link(dst=ProcessId(1, 2)))
        assert b == a + 1

    def test_snapshot_restore_preserves_counter(self):
        table = LinkTable()
        table.insert(Link(dst=ProcessId(1, 1)))
        last = table.insert(Link(dst=ProcessId(1, 2)))
        table.remove(last)               # counter is ahead of max id
        snap = table.snapshot()
        restored = LinkTable()
        restored.restore(snap)
        assert restored.insert(Link(dst=ProcessId(1, 3))) == last + 1

    def test_with_code(self):
        link = Link(dst=ProcessId(1, 1), channel=2, code=0)
        resource = link.with_code(77)
        assert resource.code == 77 and resource.channel == 2
        assert link.code == 0            # immutable original


class TestMessageQueue:
    def test_fifo_without_channels(self):
        q = MessageQueue()
        for i in range(3):
            q.append(msg(i))
        taken, was_head = q.take_next(None)
        assert taken.msg_id.seq == 0 and was_head

    def test_channel_filter_skips_nonmatching(self):
        q = MessageQueue()
        q.append(msg(1, channel=0))
        q.append(msg(2, channel=5))
        taken, was_head = q.take_next([5])
        assert taken.msg_id.seq == 2
        assert not was_head              # out-of-order read (§4.4.2)
        assert len(q) == 1

    def test_no_match_returns_none(self):
        q = MessageQueue()
        q.append(msg(1, channel=0))
        taken, was_head = q.take_next([9])
        assert taken is None and was_head
        assert len(q) == 1

    def test_head(self):
        q = MessageQueue()
        assert q.head() is None
        q.append(msg(7))
        assert q.head().msg_id.seq == 7

    def test_snapshot_restore(self):
        q = MessageQueue()
        q.append(msg(1))
        q.append(msg(2))
        snap = q.snapshot()
        q2 = MessageQueue()
        q2.restore(snap)
        assert [m.msg_id.seq for m in q2.snapshot()] == [1, 2]

    def test_clear(self):
        q = MessageQueue()
        q.append(msg(1))
        q.clear()
        assert not q


class TestMessage:
    def test_size_bounds(self):
        with pytest.raises(ValueError):
            Message(msg_id=MessageId(ProcessId(1, 1), 1), src=ProcessId(1, 1),
                    dst=ProcessId(1, 2), channel=0, code=0, body="x",
                    size_bytes=2000)

    def test_immutable(self):
        m = msg(1)
        with pytest.raises(AttributeError):
            m.body = "changed"
