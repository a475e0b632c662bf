"""The coalesced retransmission timer wheel must be observationally
equivalent to the one-engine-timer-per-message scheme it replaced.

Equivalence is checked against a reference model computed in the test
from ``TransportConfig`` (the cumulative backoff schedule a dedicated
per-message timer would follow), plus regression cases for behaviours
the per-message implementation guaranteed: retry counts, backoff
histograms, dead-letter timing, crash cleanup, and the PR 2 wedged-retry
case where the sender's own interface drops mid-retry.
"""

import random

from fixtures import register_test_programs, run_counter_scenario
from repro import System, SystemConfig
from repro.net.faults import FaultPlan
from repro.net.media import PerfectBroadcast
from repro.net.transport import Transport, TransportConfig
from repro.sim import Engine, RngStreams


def build_pair(engine, config=None, medium=None, faults=None):
    medium = medium or PerfectBroadcast(engine, faults=faults or FaultPlan())
    got = {1: [], 2: []}
    t1 = Transport(engine, medium, 1, lambda s: got[1].append(s.body),
                   config or TransportConfig())
    t2 = Transport(engine, medium, 2, lambda s: got[2].append(s.body),
                   config or TransportConfig())
    return medium, t1, t2, got


def test_retry_times_match_per_message_timer_model():
    """With the receiver dead, retries must fire at exactly the
    cumulative backoff offsets a dedicated per-message timer would use,
    and the dead letter must drop at the end of that schedule."""
    engine = Engine()
    cfg = TransportConfig(retransmit_timeout_ms=10.0, backoff_factor=2.0,
                          backoff_max_ms=40.0, max_retries=4)
    _, t1, t2, got = build_pair(engine, config=cfg)
    dead = []
    t1.on_gave_up = lambda seg, attempts: dead.append((engine.now, attempts))
    t1.iface.up = False          # every attempt is skipped: pure timer path
    t1.send(2, "doomed", 128, uid=("p", 1))
    engine.run()
    # Snapshot the run's histogram before the model below adds its own
    # observations (_retry_delay_ms records every delay it computes).
    observed = (t1._backoff_ms.count, t1._backoff_ms.total,
                t1._backoff_ms.min, t1._backoff_ms.max)
    # Attempt k is followed by a _retry_delay_ms(k) wait; after the
    # max_retries'th wait the timeout declares the dead letter.
    schedule = [t1._retry_delay_ms(k) for k in range(1, cfg.max_retries + 1)]
    assert schedule == [10.0, 20.0, 40.0, 40.0]
    assert dead == [(sum(schedule), cfg.max_retries)]
    # The wheel observed exactly the model's delays, in histogram terms.
    assert observed == (len(schedule), sum(schedule),
                        min(schedule), max(schedule))
    assert t1.queue_depth == 0
    assert got[2] == []


def test_concurrent_messages_keep_independent_schedules():
    """Several in-flight messages share one wheel; each must still give
    up after its own full backoff schedule, not a coalesced one."""
    engine = Engine()
    cfg = TransportConfig(retransmit_timeout_ms=10.0, backoff_factor=2.0,
                          backoff_max_ms=40.0, max_retries=3,
                          window=4, per_destination=True)
    medium = PerfectBroadcast(engine)
    t1 = Transport(engine, medium, 1, lambda s: None, cfg)
    dead = []
    t1.on_gave_up = lambda seg, attempts: dead.append(
        (seg.body, engine.now, attempts))
    t1.iface.up = False
    offsets = [0.0, 3.0, 11.0]
    for i, offset in enumerate(offsets):
        engine.schedule(offset, t1.send, 2 + i, f"m{i}", 128, ("p", i))
    engine.run()
    schedule_ms = sum(t1._retry_delay_ms(k)
                      for k in range(1, cfg.max_retries + 1))
    assert sorted(dead) == [(f"m{i}", offset + schedule_ms, cfg.max_retries)
                            for i, offset in enumerate(offsets)]
    assert t1.stats.gave_up.value == 3
    assert not t1._timers and t1._wheel is None


def test_ack_leaves_stale_wheel_entry_without_extra_retry():
    """An ack arriving before the retry deadline must suppress the
    retransmission even though the wheel entry is only lazily removed."""
    engine = Engine()
    faults = FaultPlan()
    faults.lose_next(lambda f, node: node == 2, count=1)
    _, t1, t2, got = build_pair(engine, faults=faults)
    t1.send(2, "once", 128, uid=("p", 1))
    engine.run()
    assert got[2] == ["once"]
    assert t1.stats.retransmissions.value == 1   # the one real loss, no ghosts
    assert t1.stats.sent.value == 2              # original + that single retry
    # Drained transport: no live wheel, engine fully idle (a leaked
    # wheel timer would have kept `run()` spinning through empty pops).
    assert t1._wheel is None
    assert engine.pending() == 0


def test_wedged_retry_regression_with_shared_wheel():
    """PR 2 regression, rerun against the coalesced wheel: the sender's
    own interface dropping between a timeout and the retransmission must
    not strand the message in `_in_flight` with no timer — even when the
    wheel also tracks other destinations' messages."""
    engine = Engine()
    cfg = TransportConfig(window=4, per_destination=True)
    medium = PerfectBroadcast(engine)
    got = {2: [], 3: []}
    t1 = Transport(engine, medium, 1, lambda s: None, cfg)
    t2 = Transport(engine, medium, 2, lambda s: got[2].append(s.body), cfg)
    t3 = Transport(engine, medium, 3, lambda s: got[3].append(s.body), cfg)
    t2.iface.up = False                    # force the retry path for one dst
    t1.send(2, "survivor", 128, uid=("p", 1))
    t1.send(3, "bystander", 128, uid=("p", 2))
    engine.run(until=50.0)                 # first copies out; t2's lost
    assert got[3] == ["bystander"]
    t1.iface.up = False                    # NIC outage hits mid-retry
    engine.run(until=450.0)                # retries fire while down
    assert t1.queue_depth == 1             # still tracked, not abandoned
    t1.iface.up = True
    t2.restart()
    engine.run(until=20_000.0)
    assert got[2] == ["survivor"]
    assert t1.queue_depth == 0
    assert not t1._timers and t1._wheel is None


def test_crash_discards_wheel_and_restart_rearms_cleanly():
    engine = Engine()
    _, t1, t2, got = build_pair(engine)
    t2.iface.up = False
    for i in range(4):
        t1.send(2, f"pre{i}", 128, uid=("p", i))
    engine.run(until=30.0)                 # retries pending on the wheel
    assert t1._timers
    t1.crash()
    assert not t1._timers and t1._wheel is None
    engine.run(until=2_000.0)              # nothing left to fire for t1
    t1.restart()
    t2.restart()
    t1.send(2, "post", 128, uid=("p", 99))
    engine.run()
    assert got[2] == ["post"]
    assert t1.queue_depth == 0


def test_lossy_run_retry_stats_are_deterministic():
    """Identical seeded lossy runs must agree on every retry figure the
    old per-message timers produced: retransmission counts, backoff
    histogram, delivery order, and total engine events."""

    def run_once(seed):
        engine = Engine()
        rng = random.Random(seed)
        faults = FaultPlan()
        # A fixed seeded loss pattern: drop every frame the generator
        # flags, whichever direction it travels.
        drops = set(rng.sample(range(200), 60))
        counter = [0]

        def should_drop(frame, node):
            counter[0] += 1
            return counter[0] in drops

        faults.lose_next(should_drop, count=len(drops))
        cfg = TransportConfig(retransmit_timeout_ms=20.0,
                              backoff_factor=2.0, backoff_max_ms=160.0)
        medium, t1, t2, got = build_pair(engine, config=cfg, faults=faults)
        for i in range(25):
            engine.schedule(i * 7.0, t1.send, 2, ("m", i), 128, ("p", i))
        engine.run()
        assert [b for (m, b) in got[2]] == list(range(25))
        return (t1.stats.retransmissions.value, t1.stats.sent.value,
                t1._backoff_ms.count, t1._backoff_ms.total,
                engine.events_fired, engine.now)

    first = run_once(42)
    assert first == run_once(42)
    assert first[0] > 0                    # the losses really bit


def test_system_level_retry_behaviour_unchanged():
    """End-to-end sanity on a lossy cluster: the counter workload still
    completes exactly, with retransmissions doing the work."""
    system = System(SystemConfig(nodes=2, loss_rate=0.05, master_seed=7))
    register_test_programs(system)
    system.boot()
    counter_pid, driver_pid = run_counter_scenario(system, n=15)
    deadline = system.engine.now + 120_000.0
    while (len(system.program_of(driver_pid).replies) < 15
           and system.engine.now < deadline):
        system.run(500)
    assert system.program_of(counter_pid).total == 15 * 16 // 2
    retrans = sum(node.kernel.transport.stats.retransmissions.value
                  for node in system.nodes.values())
    assert retrans > 0
