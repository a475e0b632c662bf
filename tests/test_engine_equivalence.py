"""Differential tests: the optimized engine vs a naive reference heap.

The reference implementation lives *here*, in the test — a deliberately
dumb list-of-records heap with none of the optimized engine's tuple
entries or lazy-deletion compaction — so a bug that crept
into both the engine and its benchmark baseline would still be caught.

Property-based schedules (seeded random mixes of schedule / cancel /
spawn-from-callback) must produce the identical fired-event sequence,
final clock, and pending count on both implementations.
"""

from __future__ import annotations

import heapq
import random

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine

from fixtures import pending


class ReferenceEngine:
    """The simplest correct discrete-event loop: a heap of
    ``[time, seq, cancelled, fn, args]`` records, popped one at a time."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap = []
        self.events_fired = 0

    def schedule(self, delay, fn, *args):
        assert delay >= 0
        self._seq += 1
        record = [self.now + delay, self._seq, False, fn, args]
        heapq.heappush(self._heap, record)
        return record

    def cancel(self, record):
        record[2] = True

    def run(self, until=None):
        while self._heap:
            record = self._heap[0]
            if record[2]:
                heapq.heappop(self._heap)
                continue
            if until is not None and record[0] > until:
                break
            heapq.heappop(self._heap)
            self.now = record[0]
            record[3](*record[4])
            self.events_fired += 1
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def pending(self):
        return sum(1 for r in self._heap if not r[2])


def _random_trace(engine, schedule, cancel, seed, ops, spawn_depth=3):
    """Drive one engine through a seeded op mix; return the fired trace.

    ``schedule(delay, fn, *args) -> token`` and ``cancel(token)``
    abstract over the two engines' APIs. The callbacks themselves
    schedule and cancel (spawn-from-callback), so handle reuse inside
    the optimized engine's run loop is exercised, not just top-level
    scheduling.
    """
    rng = random.Random(seed)
    trace = []
    live = []

    def fire(tag, depth):
        trace.append((round(engine.now, 9), tag))
        r = rng.random()
        if r < 0.35 and depth < spawn_depth:
            live.append(schedule(rng.uniform(0.0, 5.0), fire,
                                 tag * 31 + 7, depth + 1))
        elif r < 0.45 and live:
            cancel(live.pop(rng.randrange(len(live))))

    for k in range(ops):
        r = rng.random()
        if r < 0.7 or not live:
            live.append(schedule(rng.uniform(0.0, 30.0), fire, k, 0))
        else:
            cancel(live.pop(rng.randrange(len(live))))
    engine.run()
    return trace


def _run_pair(seed, ops):
    opt = Engine()
    opt_trace = _random_trace(opt, opt.schedule, lambda h: h.cancel(),
                              seed, ops)
    ref = ReferenceEngine()
    ref_trace = _random_trace(ref, ref.schedule, ref.cancel, seed, ops)
    return opt, opt_trace, ref, ref_trace


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000_000), ops=st.integers(1, 300))
def test_random_schedules_fire_identically(seed, ops):
    opt, opt_trace, ref, ref_trace = _run_pair(seed, ops)
    assert opt_trace == ref_trace
    assert opt.now == ref.now
    assert opt.events_fired == ref.events_fired
    assert pending(opt) == ref.pending() == 0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000_000))
def test_pending_counts_agree_mid_run(seed):
    """pending() must agree even while cancelled entries sit in the
    optimized heap awaiting lazy compaction."""
    rng = random.Random(seed)
    opt, ref = Engine(), ReferenceEngine()
    opt_handles, ref_records = [], []
    for k in range(200):
        delay = rng.uniform(0.0, 100.0)
        opt_handles.append(opt.schedule(delay, lambda: None))
        ref_records.append(ref.schedule(delay, lambda: None))
    for index in sorted(rng.sample(range(200), rng.randrange(1, 200)),
                        reverse=True):
        opt_handles.pop(index).cancel()
        ref.cancel(ref_records.pop(index))
        assert pending(opt) == ref.pending()
    until = rng.uniform(0.0, 120.0)
    assert opt.run(until=until) == ref.run(until=until)
    assert pending(opt) == ref.pending()


def test_mass_cancellation_triggers_compaction_without_loss():
    """Cancelling most of a large heap trips the in-place compaction;
    the survivors must still fire, in order, with correct times."""
    opt, ref = Engine(), ReferenceEngine()
    fired_opt, fired_ref = [], []
    opt_handles, ref_records = [], []
    for k in range(2000):
        t = (k * 37) % 1000 + k / 1000.0
        opt_handles.append(opt.schedule(t, fired_opt.append, k))
        ref_records.append(ref.schedule(t, fired_ref.append, k))
    for k in range(2000):
        if k % 5 != 0:
            opt_handles[k].cancel()
            ref.cancel(ref_records[k])
    assert pending(opt) == ref.pending() == 400
    opt.run()
    ref.run()
    assert fired_opt == fired_ref
    assert opt.now == ref.now


def test_cancel_after_fire_is_inert():
    """A handle cancelled after its event already fired must not
    corrupt the engine's pending-count bookkeeping (the recycled or
    detached handle no longer represents a heap entry)."""
    engine = Engine()
    kept = []
    for k in range(50):
        kept.append(engine.schedule(float(k), lambda: None))
    engine.run()
    for handle in kept:
        handle.cancel()   # late: every event already fired
    assert pending(engine) == 0
    engine.schedule(1.0, lambda: None)
    assert pending(engine) == 1
    engine.run()
    assert pending(engine) == 0


def test_cancel_inside_callback_of_same_time_slot():
    """Cancelling a not-yet-fired event from a callback scheduled at the
    same timestamp must suppress it on both implementations."""
    def build(engine, schedule, cancel):
        fired = []
        holder = {}

        def victim():
            fired.append("victim")

        def killer():
            fired.append("killer")
            cancel(holder["v"])

        # killer is scheduled first (lower seq) so it fires first and
        # cancels the victim sitting at the same timestamp.
        schedule(5.0, killer)
        holder["v"] = schedule(5.0, victim)
        engine.run()
        return fired

    opt = Engine()
    ref = ReferenceEngine()
    assert (build(opt, opt.schedule, lambda h: h.cancel())
            == build(ref, ref.schedule, ref.cancel)
            == ["killer"])
