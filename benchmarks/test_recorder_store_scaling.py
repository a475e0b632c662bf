"""The log-structured recorder store vs the flat-list reference.

Times the ``recorder_scaling`` workload's seeded operation scripts (the
ones ``BENCH_publishing.json`` pins a replay digest for) through both
stores and asserts the storage engine actually pays: the replay path at
the largest grid point must be at least 2x the naive full-rescan
reference, with identical replay order and consumed-id answers at every
query point, and the compaction/GC pass must have fired along the way.
"""

import itertools
import time

from repro.demos.ids import ProcessId
from repro.demos.messages import Message
from repro.perf.workloads import (
    _RECORDER_GRID_FULL,
    _recorder_script,
    recorder_scaling,
)
from repro.publishing.database import CheckpointEntry, RecorderDatabase
from repro.publishing.store import SegmentedLog

from _support import FlatProcessLog
from conftest import once, print_table

SEED = 1983


def _timed_replay(script, stores, arrival_index, apply_checkpoint):
    """Drive one store per process through the script; returns the wall
    seconds spent inside ``messages_to_replay`` and every query point's
    answers (replay order, consumed-id set)."""
    replay_s = 0.0
    answers = []
    for op in script:
        kind, p = op[0], op[1]
        store = stores[p]
        if kind == "msg":
            _, _, msg_id, size, is_control = op
            store.record_message(
                Message(msg_id=msg_id, src=msg_id.sender,
                        dst=ProcessId(2, p + 1), channel=1, code=0,
                        body=None, size_bytes=size,
                        deliver_to_kernel=is_control),
                arrival_index())
        elif kind == "adv":
            store.add_advisory(op[2], op[3])
        elif kind == "ckpt":
            apply_checkpoint(store, op[2], op[3])
        else:
            start = time.perf_counter()
            replay = store.messages_to_replay()
            replay_s += time.perf_counter() - start
            answers.append(([lm.message.msg_id for lm in replay],
                            store.consumed_ids(op[2])))
    return replay_s, answers


def _segmented_leg(script, processes):
    db = RecorderDatabase(SegmentedLog(64))
    records = [db.create(ProcessId(2, p + 1), node=2, image="bench")
               for p in range(processes)]
    return _timed_replay(
        script, records, db.allocate_arrival_index,
        lambda record, consumed, dtk: record.apply_checkpoint(
            CheckpointEntry(data=None, consumed=consumed, dtk_processed=dtk,
                            send_seq=0, pages=1, stored_at=0.0)))


def _flat_leg(script, processes):
    return _timed_replay(
        script, [FlatProcessLog() for _ in range(processes)],
        itertools.count().__next__,
        lambda log, consumed, dtk: log.apply_checkpoint(consumed, dtk))


def test_replay_path_speedup_and_storage_bounds(benchmark):
    result = once(benchmark, recorder_scaling, SEED, False)

    rows = []
    speedup = 0.0
    for processes, messages in _RECORDER_GRID_FULL:
        script = _recorder_script(SEED + processes, processes, messages)
        seg_s, seg_answers = _segmented_leg(script, processes)
        flat_s, flat_answers = _flat_leg(script, processes)
        assert seg_answers == flat_answers
        label = f"{processes}x{messages}"
        point = result["grid"][label]
        speedup = flat_s / seg_s
        rows.append([label, f"{seg_s * 1000:.2f}", f"{flat_s * 1000:.2f}",
                     f"{speedup:.2f}x",
                     point["compactions"] + point["segments_retired"]])
    print_table("recorder replay path: segmented log vs flat rescan",
                ["grid", "seg ms", "flat ms", "speedup", "gc passes"],
                rows)

    assert speedup >= 2.0, \
        (f"replay path only {speedup:.2f}x vs the flat reference "
         f"at {label}")
    # the speedup must come from the storage engine doing its job, not
    # from the GC never running
    assert point["compactions"] + point["segments_retired"] > 0
    # group commit: batched pages must beat one-write-per-message
    contrast = result["page_buffer"]
    assert contrast["batched"]["disk_writes"] < \
        contrast["unbatched"]["disk_writes"]
    assert contrast["batched_deadline"]["deadline_flushes"] > 0
