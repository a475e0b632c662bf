"""The log-structured recorder store vs the flat-list reference.

Runs the ``store`` rig's ``recorder_scaling`` seeded operation scripts
(the ones ``BENCH_publishing.json`` pins a replay digest for, at the
rig's own smaller grid) through both stores. Two tests:

* clock-free — both stores give identical replay order and consumed
  sets (the queue messages checkpoints invalidated) at every query
  point, the compaction/GC pass fired along the way, and batched pages
  beat one write per message;
* wall clock — the replay path at the largest grid point is at least
  2x the naive full-rescan reference. It reads a host clock, so it
  gates nothing on a shared or slow machine; run it by hand.
"""

import time

from repro.demos.ids import ProcessId
from repro.demos.messages import Message
from repro.publishing.database import CheckpointEntry, RecorderDatabase
from repro.publishing.store import SegmentedLog
from repro.rigs import _recorder_script, recorder_scaling

from _support import FlatProcessLog
from conftest import once, print_table

SEED = 1983
#: (processes, messages per process): larger than the rig's committed
#: grid, so the replay path's asymptotics show in the timing
GRID = ((4, 300), (8, 600), (16, 1200))


def _timed_replay(script, stores, apply_checkpoint):
    """Drive one store per process through the script; returns the wall
    seconds spent inside ``messages_to_replay`` and every query point's
    answers (replay order, the set of queue messages checkpoints have
    invalidated so far)."""
    replay_s = 0.0
    answers = []
    consumed = [set() for _ in stores]
    for op in script:
        kind, p = op[0], op[1]
        store = stores[p]
        if kind == "msg":
            _, _, msg_id, size, is_control = op
            store.record_message(
                Message(msg_id=msg_id, src=msg_id.sender,
                        dst=ProcessId(2, p + 1), channel=1, code=0,
                        body=None, size_bytes=size,
                        deliver_to_kernel=is_control))
        elif kind == "adv":
            store.add_advisory(op[2], op[3])
        elif kind == "ckpt":
            live = store.messages_to_replay()
            apply_checkpoint(store, op[2], op[3])
            consumed[p].update(lm.message.msg_id for lm in live
                               if lm.invalid
                               and not lm.message.deliver_to_kernel)
        else:
            start = time.perf_counter()
            replay = store.messages_to_replay()
            replay_s += time.perf_counter() - start
            answers.append(([lm.message.msg_id for lm in replay],
                            set(consumed[p])))
    return replay_s, answers


def _segmented_leg(script, processes):
    db = RecorderDatabase(SegmentedLog(64))
    records = [db.create(ProcessId(2, p + 1), node=2, image="bench")
               for p in range(processes)]
    return _timed_replay(
        script, records,
        lambda record, consumed, dtk: record.apply_checkpoint(
            CheckpointEntry(data=None, consumed=consumed, dtk_processed=dtk,
                            send_seq=0, pages=1, stored_at=0.0)))


def _flat_leg(script, processes):
    return _timed_replay(
        script, [FlatProcessLog() for _ in range(processes)],
        lambda log, consumed, dtk: log.apply_checkpoint(consumed, dtk))


def _legs(processes, messages):
    """Both stores through one grid point's script:
    ``(segmented (seconds, answers), flat (seconds, answers))``."""
    script = _recorder_script(SEED + processes, processes, messages)
    return _segmented_leg(script, processes), _flat_leg(script, processes)


def test_store_answers_match_the_flat_reference(benchmark):
    result = once(benchmark, recorder_scaling, SEED, GRID)
    for processes, messages in GRID:
        (_, seg_answers), (_, flat_answers) = _legs(processes, messages)
        assert seg_answers == flat_answers, f"{processes}x{messages}"
    # the storage engine did its job: the GC ran at the largest point
    point = result["grid"][f"{processes}x{messages}"]
    assert point["compactions"] + point["segments_retired"] > 0
    # group commit: batched pages must beat one-write-per-message
    contrast = result["page_buffer"]
    assert contrast["batched"]["disk_writes"] < \
        contrast["unbatched"]["disk_writes"]
    assert contrast["batched_deadline"]["deadline_flushes"] > 0


def test_replay_path_speedup():
    rows = []
    speedup = 0.0
    for processes, messages in GRID:
        (seg_s, _), (flat_s, _) = _legs(processes, messages)
        label = f"{processes}x{messages}"
        speedup = flat_s / seg_s
        rows.append([label, f"{seg_s * 1000:.2f}", f"{flat_s * 1000:.2f}",
                     f"{speedup:.2f}x"])
    print_table("recorder replay path: segmented log vs flat rescan",
                ["grid", "seg ms", "flat ms", "speedup"], rows)
    assert speedup >= 2.0, \
        (f"replay path only {speedup:.2f}x vs the flat reference "
         f"at {label}")
