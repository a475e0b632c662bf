"""Tests for the log-structured storage engine: segment lifecycle
(retire vs compact), io cost accounting, replay cursors, group-commit
deadlines and crash loss, the disk stall/busy split, and the
recorder.* storage gauges.
"""

import pytest

from repro import costs
from repro.demos.ids import MessageId, ProcessId
from repro.demos.messages import Message
from repro.errors import RecorderError
from repro.net.media import PerfectBroadcast
from repro.publishing.database import (
    CheckpointEntry,
    LoggedMessage,
    ProcessRecord,
)
from repro.publishing.disk import DiskArray, DiskModel, PageBuffer
from repro.publishing.recorder import Recorder, RecorderConfig
from repro.publishing.store import SegmentedLog
from repro.sim.engine import Engine

PID = ProcessId(2, 1)
SENDER = ProcessId(1, 1)


def make_message(seq, size=100, control=False, marker=False):
    return Message(msg_id=MessageId(SENDER, seq), src=SENDER, dst=PID,
                   channel=1, code=0, body=None, size_bytes=size,
                   deliver_to_kernel=control, recovery_marker=marker)


def make_logged(seq, size=100):
    return LoggedMessage(make_message(seq, size=size))


def fill_log(log, count, size=100):
    """Append ``count`` standalone records; returns them."""
    records = []
    for i in range(count):
        lm = make_logged(i, size=size)
        lm.seq = log.append(lm)
        records.append(lm)
    return records


def kill(log, lm):
    """Invalidate a standalone record (no owning ProcessRecord)."""
    lm.invalid = True
    log.invalidate(lm.seq, lm.message.size_bytes)


class TestSegmentedLog:
    def test_append_assigns_stable_sequential_seqs(self):
        log = SegmentedLog(segment_records=4)
        records = fill_log(log, 10)
        assert [lm.seq for lm in records] == list(range(10))
        assert log.segments == 3          # 4 + 4 + 2

    def test_accounting_tracks_appends_and_invalidations(self):
        log = SegmentedLog(segment_records=8)
        records = fill_log(log, 6, size=50)
        assert log.live_records == 6
        assert log.live_bytes == 300
        assert log.log_bytes == 300
        kill(log, records[0])
        assert log.live_records == 5
        assert log.live_bytes == 250
        assert log.log_bytes == 300       # head segment: dead byte held

    def test_fully_dead_sealed_segment_is_retired(self):
        log = SegmentedLog(segment_records=4)
        records = fill_log(log, 8)
        for lm in records[:4]:             # kill the whole first segment
            kill(log, lm)
        assert log.segments_retired == 1
        assert log.segments == 1           # only the second remains

    def test_head_segment_is_never_collected(self):
        log = SegmentedLog(segment_records=8)
        records = fill_log(log, 4)         # segment not yet sealed
        for lm in records:
            kill(log, lm)
        assert log.segments == 1
        assert log.segments_retired == 0
        assert log.compactions == 0

    def test_half_dead_sealed_segment_is_compacted_in_place(self):
        log = SegmentedLog(segment_records=4)
        records = fill_log(log, 5)         # seals the first segment
        kill(log, records[0])
        assert log.compactions == 0        # 3/4 live: above threshold
        kill(log, records[1])
        assert log.compactions == 1        # 2/4 live: §4.5 pass fires
        assert log.log_bytes == 300        # 2 survivors + unsealed head

    def test_invalidate_tolerates_compacted_records(self):
        """The guard against double invalidation is the record's own:
        the log is told once however often the flag is set."""
        record = make_record(5, segment_records=4)
        log = record.log
        first, second = record.arrivals[:2]
        first.invalid = True
        second.invalid = True              # compaction drops both
        assert log.compactions == 1
        before = (log.live_records, log.live_bytes)
        assert before == (3, 300)
        first.invalid = True
        assert (log.live_records, log.live_bytes) == before
        with pytest.raises(RecorderError):
            first.invalid = False

    def test_compaction_charges_modeled_read_and_write(self):
        ops = []
        log = SegmentedLog(segment_records=4, io=lambda op, n: ops.append((op, n)))
        records = fill_log(log, 5, size=100)
        kill(log, records[0])
        kill(log, records[1])
        # §4.5: read the whole held segment in, write the live tail back
        assert ops == [("read", 400), ("write", 200)]
        assert log.compaction_read_bytes == 400
        assert log.compaction_written_bytes == 200

    def test_retirement_charges_only_the_read(self):
        ops = []
        log = SegmentedLog(segment_records=4, io=lambda op, n: ops.append((op, n)))
        records = fill_log(log, 5, size=100)
        for lm in records[:4]:
            kill(log, lm)
        # each kill that halves the live bytes triggers a compaction
        # pass (read the held bytes, write the live tail); the last
        # kill retires the segment — a read only, never a write
        assert ops == [("read", 400), ("write", 200),
                       ("read", 200), ("write", 100),
                       ("read", 100)]
        assert log.segments_retired == 1
        assert log.compactions == 2

    def test_rejects_degenerate_segment_size(self):
        with pytest.raises(ValueError):
            SegmentedLog(segment_records=0)


def make_record(count=0, segment_records=4):
    record = ProcessRecord(pid=PID, node=2, image="img",
                           log=SegmentedLog(segment_records))
    for i in range(count):
        record.record_message(make_message(i + 1))
    return record


def ckpt(consumed, dtk=0):
    return CheckpointEntry(data=None, consumed=consumed, dtk_processed=dtk,
                           send_seq=0, pages=1, stored_at=0.0)


class TestReplayCursor:
    def test_walks_survivors_in_arrival_order(self):
        record = make_record(10)
        cursor = record.replay_cursor()
        seen = [cursor.next().message.msg_id.seq for _ in range(10)]
        assert seen == list(range(1, 11))
        assert cursor.next() is None

    def test_starts_past_the_invalid_prefix(self):
        record = make_record(10)
        record.apply_checkpoint(ckpt(4))
        cursor = record.replay_cursor()
        assert cursor.next().message.msg_id.seq == 5

    def test_survives_appends_during_the_walk(self):
        record = make_record(3)
        cursor = record.replay_cursor()
        assert cursor.next().message.msg_id.seq == 1
        record.record_message(make_message(4))
        seen = []
        while (lm := cursor.next()) is not None:
            seen.append(lm.message.msg_id.seq)
        assert seen == [2, 3, 4]

    def test_survives_compaction_mid_walk(self):
        record = make_record(12, segment_records=4)
        cursor = record.replay_cursor()
        assert cursor.next().message.msg_id.seq == 1
        # checkpoint invalidates 1..8: two whole segments retire while
        # the cursor is parked inside the first of them
        record.apply_checkpoint(ckpt(8))
        assert record.log.segments_retired == 2
        seen = []
        while (lm := cursor.next()) is not None:
            if not lm.invalid:
                seen.append(lm.message.msg_id.seq)
        assert seen == [9, 10, 11, 12]

    def test_exactly_once_across_retirement_with_appends(self):
        """Recovery-replay audit: segments retire *while* the cursor is
        mid-walk and fresh arrivals keep appending — every survivor is
        yielded exactly once, none twice, none skipped."""
        record = make_record(8, segment_records=4)
        cursor = record.replay_cursor()
        seen = [cursor.next().message.msg_id.seq,
                cursor.next().message.msg_id.seq]
        # checkpoint-driven compaction retires segment 0 under the
        # cursor's feet (its _last_seq points into the dead segment)
        record.apply_checkpoint(ckpt(4))
        assert record.log.segments_retired == 1
        record.record_message(make_message(9))   # catch-up arrival
        while (lm := cursor.next()) is not None:
            if not lm.invalid:
                seen.append(lm.message.msg_id.seq)
        assert seen == [1, 2, 5, 6, 7, 8, 9]
        assert len(seen) == len(set(seen))

    def test_cursor_parked_on_retired_record_resumes_at_survivor(self):
        record = make_record(12, segment_records=4)
        cursor = record.replay_cursor()
        for _ in range(6):          # park inside segment 1 (seqs 4..7)
            cursor.next()
        record.apply_checkpoint(ckpt(8))   # retires segments 0 and 1
        assert record.log.segments_retired == 2
        while (lm := cursor.next()).invalid:
            pass
        assert lm.message.msg_id.seq == 9

    def test_partial_compaction_keeps_cursor_position(self):
        """A mostly-dead segment compacts (live records rewritten at
        the same seqs): the cursor's bisect resync must not re-yield or
        lose the survivors."""
        record = make_record(8, segment_records=8)
        cursor = record.replay_cursor()
        assert cursor.next().message.msg_id.seq == 1
        # invalidate 2..6 (the setter routes through the owning record
        # into the log): >half the sealed segment's bytes die, so the
        # GC compacts it in place rather than retiring it
        for seq in range(2, 7):
            record._live[seq - 1].invalid = True
        assert record.log.segments_retired == 0
        record.record_message(make_message(9))
        survivors = []
        while (lm := cursor.next()) is not None:
            if not lm.invalid:
                survivors.append(lm.message.msg_id.seq)
        assert survivors == [7, 8, 9]


class TestVerifiedReplay:
    """Bugfix regression: a corrupted segment record must surface as a
    typed error on a verified read — never be yielded mangled into a
    recovering process."""

    @staticmethod
    def corrupt(record, seq):
        from dataclasses import replace
        lm = record._live[seq - 1]
        lm.message = replace(lm.message, body=("bitrot", lm.message.body))
        return lm

    def test_append_stamps_a_checksum(self):
        record = make_record(3)
        assert all(lm.checksum is not None for lm in record.arrivals)

    def test_verified_cursor_raises_typed_error_on_corruption(self):
        from repro.errors import RecordCorruptionError
        record = make_record(5)
        self.corrupt(record, 3)
        cursor = record.replay_cursor(verify=True)
        assert cursor.next().message.msg_id.seq == 1
        assert cursor.next().message.msg_id.seq == 2
        with pytest.raises(RecordCorruptionError) as exc:
            cursor.next()
        assert isinstance(exc.value, RecorderError)   # typed subclass

    def test_verified_cursor_skips_and_continues(self):
        """The cursor position has already advanced past the bad
        record, so a caller that catches the error resumes cleanly."""
        from repro.errors import RecordCorruptionError
        record = make_record(5)
        self.corrupt(record, 2)
        self.corrupt(record, 4)
        cursor = record.replay_cursor(verify=True)
        seen, corrupt = [], 0
        while True:
            try:
                lm = cursor.next()
            except RecordCorruptionError:
                corrupt += 1
                continue
            if lm is None:
                break
            seen.append(lm.message.msg_id.seq)
        assert seen == [1, 3, 5]
        assert corrupt == 2

    def test_digest_covers_the_passed_link(self):
        """Bugfix regression: the digest skipped ``passed_link``, so two
        logged messages handing over different capabilities agreed."""
        from dataclasses import replace
        from repro.demos.links import Link
        from repro.publishing.store import payload_digest
        bare = make_message(1)
        linked = replace(bare, passed_link=Link(SENDER, channel=2, code=7))
        assert payload_digest(bare) != payload_digest(linked)
        assert payload_digest(linked) != payload_digest(
            replace(bare, passed_link=Link(SENDER, channel=2, code=8)))

    def test_verified_cursor_sees_a_swapped_passed_link(self):
        from dataclasses import replace
        from repro.demos.links import Link
        from repro.errors import RecordCorruptionError
        record = make_record()
        record.record_message(
            replace(make_message(1), passed_link=Link(SENDER, code=7)))
        lm = record._live[0]
        lm.message = replace(lm.message, passed_link=None)  # link-less twin
        with pytest.raises(RecordCorruptionError):
            record.replay_cursor(verify=True).next()

    def test_warm_images_mask_nothing(self):
        """Every message framed, logged and verified once, so each
        carries its image; then the same tampering as above, plus two
        intact records trading places."""
        from dataclasses import replace
        from repro.demos.links import Link
        from repro.errors import RecordCorruptionError
        from repro.net.frames import Frame, FrameKind
        from repro.net.transport import Segment
        record = make_record()
        for seq in range(1, 7):
            message = replace(make_message(seq), body=("add", seq),
                              passed_link=Link(SENDER, code=seq))
            Frame(FrameKind.DATA, 1, 2, Segment(("m", seq), 1, 2, message),
                  message.size_bytes)
            record.record_message(message)
        cursor = record.replay_cursor(verify=True)
        originals = [cursor.next().message for _ in range(6)]
        assert all(m._wire_image for m in originals)

        live = record._live
        live[1].message = replace(originals[1], body=("add", 20))
        live[2].message = replace(originals[2], passed_link=None)
        live[3].message, live[4].message = originals[4], originals[3]
        cursor = record.replay_cursor(verify=True)
        seen, corrupt = [], 0
        for _ in range(6):
            try:
                seen.append(cursor.next().message.msg_id.seq)
            except RecordCorruptionError:
                corrupt += 1
        assert (seen, corrupt) == ([1, 6], 4)

        for lm, message in zip(live, originals):    # the rot undone
            lm.message = message
        cursor = record.replay_cursor(verify=True)
        assert [cursor.next().message for _ in range(6)] == originals

    def test_unverified_cursor_does_not_checksum(self):
        record = make_record(3)
        self.corrupt(record, 2)
        cursor = record.replay_cursor()
        seen = [cursor.next().message.msg_id.seq for _ in range(3)]
        assert seen == [1, 2, 3]


class TestLoggedMessageInvalidation:
    def test_revalidation_is_refused(self):
        record = make_record(1)
        lm = record.arrivals[0]
        lm.invalid = True
        with pytest.raises(RecorderError):
            lm.invalid = False

    def test_double_invalidation_is_idempotent(self):
        record = make_record(2)
        lm = record.arrivals[0]
        lm.invalid = True
        bytes_after = record.valid_message_bytes()
        lm.invalid = True
        assert record.valid_message_bytes() == bytes_after

    def test_invalidate_all_reports_only_new_work(self):
        record = make_record(5)
        record.arrivals[0].invalid = True
        assert record.invalidate_all() == 4
        assert record.invalidate_all() == 0
        assert record.messages_to_replay() == []
        assert record.valid_message_bytes() == 0


class TestRecordLoggedUnderItsCheckpoint:
    """Checkpoint coverage is one rule, whichever of the record and the
    checkpoint reaches the recorder second (docs/RECORDER_STORAGE.md)."""

    def test_a_late_record_is_not_replayed_on_top_of_its_checkpoint(self):
        """The recorder logs a message after its destination consumed it
        (gossip repair after a recorder miss): messages 4 and 5 arrive
        in the log after a checkpoint that already covers 5
        consumptions. The checkpoint's state reflects them, so a
        recovery must not replay them — not then, and not after a later
        checkpoint either."""
        record = make_record(3)
        record.apply_checkpoint(ckpt(5))
        for seq in (4, 5):
            record.record_message(make_message(seq))
        record.apply_checkpoint(ckpt(6))
        assert record.messages_to_replay() == []

    def test_a_late_control_is_not_replayed_on_top_of_its_checkpoint(self):
        """The control half: the checkpoint says the process handled 3
        DELIVERTOKERNEL messages, but only the first is logged when it
        is stored. The other two are covered the moment they arrive."""
        record = make_record()
        record.record_message(make_message(1, control=True))
        assert record.apply_checkpoint(ckpt(0, dtk=3)) == 1
        late = [record.record_message(make_message(seq, control=True))
                for seq in (2, 3)]
        assert all(lm.invalid for lm in late)
        fresh = record.record_message(make_message(4, control=True))
        assert record.messages_to_replay() == [fresh]
        assert record.apply_checkpoint(ckpt(0, dtk=4)) == 1
        assert record.messages_to_replay() == []

    def test_advisories_retire_once_a_checkpoint_covers_their_reads(self):
        """A matched advisory is dropped: after a checkpoint that covers
        every consumption the record holds none, so the list is bounded
        by the reads since the last checkpoint, not the process's life."""
        record = make_record(6)
        for read, head in ((3, 1), (5, 1), (6, 2)):
            record.add_advisory(make_message(read).msg_id,
                                make_message(head).msg_id)
        assert record.apply_checkpoint(ckpt(2)) == 2   # 3, then 5
        assert len(record.advisories) == 1
        assert record.apply_checkpoint(ckpt(6)) == 4   # 1, 6, 2, 4
        assert not record.advisories
        assert record.messages_to_replay() == []


class TestLogBytesBound:
    def test_ten_checkpoint_soak_keeps_log_within_twice_live(self):
        """The acceptance bound: across a long record/checkpoint soak,
        compaction holds the held bytes to ≤ 2x the live bytes plus the
        unsealed head segment's slack."""
        record = make_record(segment_records=8)
        log = record.log
        head_slack = 8 * 1024               # one unsealed segment, max size
        seq = 1
        consumed = 0
        for round_no in range(10):
            for _ in range(120):
                record.record_message(
                    make_message(seq, size=64 + (seq % 5) * 240))
                seq += 1
            consumed += 100                  # leave a live tail each round
            record.apply_checkpoint(ckpt(consumed))
            assert log.log_bytes <= 2 * log.live_bytes + head_slack, \
                f"round {round_no}: {log.log_bytes} > 2x{log.live_bytes}"
        assert log.compactions + log.segments_retired > 0


class TestDiskStallAccounting:
    def test_stall_windows_count_wall_clock_once(self):
        engine = Engine()
        disk = DiskModel(engine)
        disk.stall(10.0)
        disk.stall(4.0)                      # inside the window: no-op
        assert disk.stall_ms == 10.0
        disk.stall(15.0)                     # extends by 5
        assert disk.stall_ms == 15.0
        assert disk.busy_ms == 0.0           # stalling is not service time

    def test_stall_wait_is_not_busy_time(self):
        engine = Engine()
        disk = DiskModel(engine)
        service = costs.disk_op_ms(2000)
        done_free = disk.submit("write", 2000)
        assert disk.busy_ms == pytest.approx(service)
        assert disk.stall_wait_ms == 0.0
        # freeze the controller; the next op waits out the stall but its
        # service time is unchanged
        engine.run(until=done_free)
        disk.stall(20.0)
        done_stalled = disk.submit("write", 2000)
        assert done_stalled == pytest.approx(engine.now + 20.0 + service)
        assert disk.busy_ms == pytest.approx(2 * service)
        assert disk.stall_wait_ms == pytest.approx(20.0)

    def test_utilization_excludes_stall_and_stall_ms_holds_it(self):
        engine = Engine()
        disk = DiskModel(engine)
        disk.submit("write", 2000)           # 3 + 1 = 4 ms service
        disk.stall(16.0)
        assert disk.utilization(40.0) == pytest.approx(0.1)
        assert disk.stall_ms == pytest.approx(16.0)

    def test_array_aggregates_the_split(self):
        engine = Engine()
        disks = DiskArray(engine, count=2)
        disks.stall(10.0)
        disks.submit("write", 2000)
        assert disks.stall_ms == pytest.approx(20.0)   # both spindles
        assert disks.stall_wait_ms == pytest.approx(10.0)
        assert disks.busy_ms == pytest.approx(4.0)


class TestPageBufferGroupCommit:
    def test_deadline_flushes_a_lone_partial_page(self):
        engine = Engine()
        disks = DiskArray(engine, count=1)
        buffer = PageBuffer(disks, flush_deadline_ms=5.0)
        buffer.add(600)
        assert disks.writes == 0             # staged, not yet durable
        engine.run(until=20.0)
        assert buffer.deadline_flushes == 1
        assert disks.writes == 1
        assert disks.disks[0].bytes_written == 600

    def test_draining_the_buffer_cancels_the_pending_deadline(self):
        engine = Engine()
        disks = DiskArray(engine, count=1)
        buffer = PageBuffer(disks, flush_deadline_ms=5.0)
        buffer.add(600)
        buffer.add(4096 - 600)               # completes the page exactly
        engine.run(until=20.0)
        assert buffer.pages_flushed == 1
        assert buffer.deadline_flushes == 0  # nothing left to deadline
        assert disks.writes == 1

    def test_partial_remainder_keeps_the_deadline_armed(self):
        engine = Engine()
        disks = DiskArray(engine, count=1)
        buffer = PageBuffer(disks, flush_deadline_ms=5.0)
        buffer.add(600)
        buffer.add(4096)                     # one page out, 600 staged
        engine.run(until=20.0)
        assert buffer.deadline_flushes == 1  # remainder still flushes
        assert buffer.pages_flushed == 2
        assert buffer.bytes_lost == 0

    def test_no_deadline_means_partial_pages_wait_for_flush(self):
        engine = Engine()
        disks = DiskArray(engine, count=1)
        buffer = PageBuffer(disks)
        buffer.add(600)
        engine.run(until=100.0)
        assert disks.writes == 0
        buffer.flush()
        assert disks.writes == 1

    def test_crash_loses_exactly_the_staged_fill(self):
        engine = Engine()
        disks = DiskArray(engine, count=1)
        buffer = PageBuffer(disks, flush_deadline_ms=5.0)
        buffer.add(4096 + 700)               # one page out, 700 staged
        lost = buffer.crash()
        assert lost == 700
        assert buffer.bytes_lost == 700
        engine.run(until=50.0)               # cancelled deadline stays dead
        assert buffer.deadline_flushes == 0
        assert buffer.crash() == 0           # nothing left to lose


class TestRecorderStorageGauges:
    GAUGES = (
        "recorder.log_bytes", "recorder.live_bytes", "recorder.segments",
        "recorder.compactions", "recorder.segments_retired",
        "recorder.disk_busy_ms", "recorder.disk_stall_ms",
        "recorder.disk_stall_wait_ms",
    )

    def test_gauges_track_the_storage_engine(self):
        engine = Engine()
        medium = PerfectBroadcast(engine)
        recorder = Recorder(engine, medium, RecorderConfig(),
                            claim=range(1, 3))
        seg = recorder.db.log.segment_records
        record = recorder.db.create(PID, node=2, image="img")
        for i in range(seg + 2):
            record.record_message(make_message(i + 1, size=200))
        snap = recorder.obs.registry.snapshot()
        for name in self.GAUGES:
            assert name in snap, name
        assert snap["recorder.log_bytes"] == (seg + 2) * 200
        assert snap["recorder.live_bytes"] == (seg + 2) * 200
        assert snap["recorder.segments"] == 2
        record.apply_checkpoint(ckpt(seg + 1))   # retires the first segment
        snap = recorder.obs.registry.snapshot()
        assert snap["recorder.segments_retired"] == 1
        assert snap["recorder.live_bytes"] == 200
        assert snap["recorder.disk_busy_ms"] > 0   # retirement read

    def test_compaction_io_lands_on_the_recorder_disks(self):
        engine = Engine()
        medium = PerfectBroadcast(engine)
        recorder = Recorder(engine, medium, RecorderConfig(),
                            claim=range(1, 3))
        seg = recorder.db.log.segment_records
        record = recorder.db.create(PID, node=2, image="img")
        for i in range(seg + 1):
            record.record_message(make_message(i + 1, size=200))
        reads_before = recorder.disks.reads
        record.apply_checkpoint(ckpt(seg // 2))   # half-dead: compaction
        assert recorder.db.log.compactions == 1
        assert recorder.disks.reads == reads_before + 1
        # half the sealed records died: the other half is what the
        # compacted segment rewrites
        assert recorder.db.log.compaction_written_bytes == seg // 2 * 200


def test_only_the_database_appends_to_a_process_record():
    """One door into the log: every record in ``src/`` enters through
    ``RecorderDatabase.deliver``, the one caller of
    ``ProcessRecord.record_message`` (a direct call anywhere else would
    bypass the recorder's adversary stages). ``Recorder.record_message``,
    a recorder staging what it heard, is only called on ``self``."""
    import ast
    import pathlib
    import repro
    root = pathlib.Path(repro.__file__).parent
    callers = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "record_message"
                    and getattr(node.func.value, "id", None) != "self"):
                callers.add(path.relative_to(root).as_posix())
    assert callers == {"publishing/database.py"}
