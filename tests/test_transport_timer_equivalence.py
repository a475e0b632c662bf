"""The coalesced retransmission timer wheel must be observationally
equivalent to the one-engine-timer-per-message scheme it replaced.

Equivalence is checked against a reference model computed in the test
from ``TransportConfig`` (the cumulative backoff schedule a dedicated
per-message timer would follow), plus regression cases for behaviours
the per-message implementation guaranteed: retry counts, backoff
histograms, dead-letter timing, crash cleanup, and the PR 2 wedged-retry
case where the sender's own interface drops mid-retry.

The same for the sender's queue: per-lane FIFOs must start what the
whole-queue pump they replaced started, in the same order (the oracle
at the end of this file).
"""

import random

from hypothesis import example, given, settings, strategies as st

from fixtures import register_test_programs, run_counter_scenario
from repro import System, SystemConfig
from repro.net.faults import FaultPlan
from repro.net.media import Medium, PerfectBroadcast
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


# ----------------------------------------------------------------------
# lanes vs the one-pass pump they replaced
# ----------------------------------------------------------------------
def one_pass_pump(queue, in_flight, window, per_destination):
    """The deleted ``Transport._pump`` as a pure function: which of the
    queued ``(uid, dst)`` start given the uids in flight, and what
    stays queued. Its per-destination branch re-counted the in-flight
    messages of every destination and re-filed the whole queue on every
    call — the quadratic the lanes remove."""
    if not per_destination:
        occupied = set(in_flight)
        started = []
        for uid, dst in queue:
            if len(occupied) >= window:
                break
            occupied.add(uid)
            started.append((uid, dst))
        return started, queue[len(started):]
    busy = {}
    for dst in in_flight.values():
        busy[dst] = busy.get(dst, 0) + 1
    started, remaining = [], []
    for uid, dst in queue:
        if busy.get(dst, 0) >= window:
            remaining.append((uid, dst))
            continue
        busy[dst] = busy.get(dst, 0) + 1
        started.append((uid, dst))
    return started, remaining


class OnePassSender:
    """The sender-side state the deleted pump worked on, stepped by the
    same sends and completions as the transport under test.

    The pass is repeated until it starts nothing. Once was enough for
    the parent except just after a start overwrote an in-flight entry
    of the same uid: its per-destination pass had already counted both,
    so it left the freed slot idle until the next event of any kind.
    Lanes (like the parent's own shared-window loop) use it at once.
    """

    def __init__(self, window, per_destination):
        self.window = window
        self.per_destination = per_destination
        self.queue = []
        self.in_flight = {}
        self.started = []

    def pump(self):
        while True:
            started, self.queue = one_pass_pump(
                self.queue, self.in_flight, self.window,
                self.per_destination)
            if not started:
                return
            self.in_flight.update(started)
            self.started += started

    def send(self, uid, dst):
        self.queue.append((uid, dst))
        self.pump()

    def complete(self, uid):
        if self.in_flight.pop(uid, None) is not None:
            self.pump()


class HeldAckMedium(Medium):
    """Carries nothing: keeps every frame offered and leaves its
    hardware acknowledgement to the test."""

    provides_delivery_ack = True
    kind = "held"

    def __init__(self, engine):
        super().__init__(engine)
        self.offered = []

    def transmit(self, iface, frame):
        self.offered.append(frame)

    def ack(self, frame):
        self._notify_sender(frame, True)


SENDER_OPS = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 5), st.integers(2, 5)),
    st.tuples(st.just("ack"), st.integers(0, 7)),
    st.tuples(st.just("expire"), st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(SENDER_OPS, max_size=40),
       window=st.sampled_from([1, 2, 4]),
       per_destination=st.booleans())
@example(ops=[("send", 0, 2), ("send", 1, 3), ("send", 2, 3), ("send", 0, 2),
              ("send", 2, 3), ("send", 3, 3), ("ack", 1), ("ack", 0)],
         window=2, per_destination=True)   # uid 2 overwritten in flight
def test_lanes_start_what_the_one_pass_pump_started(ops, window,
                                                    per_destination):
    """Sends over four destinations, acks in any order, give-ups with
    the interface up or down, uids re-sent while still queued or in
    flight: the transport hands the medium the same uids in the same
    order as the one-pass pump, and ends with every slot free."""
    engine = Engine()
    medium = HeldAckMedium(engine)
    # max_retries=1: a message is offered once and dies at its first
    # timeout, so every frame the medium sees is a start, not a retry
    transport = Transport(engine, medium, 1, lambda s: None, TransportConfig(
        window=window, per_destination=per_destination, max_retries=1))
    model = OnePassSender(window, per_destination)
    visible = []         # the model's starts while the interface is up

    def model_step(step, *args):
        before = len(model.started)
        step(*args)
        if transport.iface.up:
            visible.extend(uid for uid, _ in model.started[before:])

    transport.on_gave_up = lambda segment, attempts: model_step(
        model.complete, segment.uid)

    def ack(uid):
        frame = next(f for f in reversed(medium.offered)
                     if f.payload.uid == uid)
        model_step(model.complete, uid)
        medium.ack(frame)

    def check():
        assert [f.payload.uid for f in medium.offered] == visible
        assert transport.queue_depth == \
            len(model.queue) + len(model.in_flight)

    for op in ops:
        if op[0] == "send":
            _, uid, dst = op
            model_step(model.send, (uid,), dst)
            transport.send(dst, "x", 64, uid=(uid,))
        elif op[0] == "ack":
            if model.in_flight:
                ack(list(model.in_flight)[op[1] % len(model.in_flight)])
        elif op[1]:
            # a dead interface: everything queued starts unseen and
            # dies in turn, one dead letter freeing the next start
            transport.iface.up = False
            engine.run()
            transport.iface.up = True
            assert not model.queue and not model.in_flight
        else:
            # a silent peer: what is in flight now times out; what
            # those dead letters start is offered and stays in flight
            engine.run(until=engine.now
                       + transport.config.retransmit_timeout_ms)
        check()
    while model.in_flight:
        ack(next(iter(model.in_flight)))
    check()
    assert transport.queue_depth == 0
    # no slot leaked: every lane takes a full window of fresh sends
    offered = len(medium.offered)
    for dst in (2, 3, 4, 5) if per_destination else (2,):
        for k in range(window):
            transport.send(dst, "x", 64, uid=("fresh", dst, k))
        offered += window
        assert len(medium.offered) == offered
