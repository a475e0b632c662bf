"""The epidemic repair path (repro.publishing.gossip): bounded peer
buffers, gap tracking, pull rounds, loss injection, the recovery-time
convergence wait — and the set-convergence contract of docs/GOSSIP.md,
pinned by a hypothesis differential against the lossless recorder.
"""

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import System, SystemConfig
from repro.chaos import (
    ChaosCampaign,
    CrashNode,
    CrashRecorder,
    GossipLoss,
    RestartRecorder,
    run_scenario,
)
from repro.demos.ids import MessageId, ProcessId
from repro.demos.messages import Control, Message
from repro.publishing.gossip import GapTracker, GossipBuffer, pull_ranges

from conftest import (
    expected_totals,
    register_test_programs,
    run_counter_scenario,
)
from fixtures import count_calls

SENDER = ProcessId(1, 1)
DEST = ProcessId(2, 1)


def msg(seq, sender=SENDER):
    return Message(msg_id=MessageId(sender, seq), src=sender, dst=DEST,
                   channel=1, code=0, body=seq, size_bytes=100)


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------
class TestGossipBuffer:
    def test_evicts_oldest_first_at_depth(self):
        buffer = GossipBuffer(depth=3)
        for seq in range(1, 5):
            buffer.note(msg(seq))
        assert len(buffer) == 3
        assert buffer.get(MessageId(SENDER, 1)) is None
        assert [m.seq for m in buffer.take_sightings()] == [2, 3, 4]

    def test_resighting_refreshes_position(self):
        buffer = GossipBuffer(depth=2)
        buffer.note(msg(1))
        buffer.note(msg(2))
        buffer.note(msg(1))          # retransmission keeps 1 hot
        buffer.note(msg(3))          # evicts 2, not 1
        assert buffer.get(MessageId(SENDER, 2)) is None
        assert buffer.get(MessageId(SENDER, 1)) is not None

    def test_clear_models_node_crash(self):
        buffer = GossipBuffer(depth=4)
        buffer.note(msg(1))
        buffer.clear()
        assert len(buffer) == 0
        assert not buffer.take_sightings()

    def test_sightings_are_handed_over_once_in_ring_order(self):
        buffer = GossipBuffer(depth=3)
        for seq in (1, 2, 3, 1):     # 1 is re-sighted: it moves last
            buffer.note(msg(seq))
        assert [m.seq for m in buffer.take_sightings()] == [2, 3, 1]
        assert not buffer.take_sightings()           # forgotten
        buffer.note(msg(2))          # a re-sighting is a sighting too
        buffer.note(msg(4))          # evicts 3; nothing taken is lost
        assert [m.seq for m in buffer.take_sightings()] == [2, 4]
        assert len(buffer) == 3


class TestGapTracker:
    def test_frontier_jump_flags_the_holes_between(self):
        tracker = GapTracker()
        assert tracker.note_recorded(MessageId(SENDER, 1)) == []
        fresh = tracker.note_recorded(MessageId(SENDER, 4))
        assert fresh == [MessageId(SENDER, 2), MessageId(SENDER, 3)]
        assert tracker.outstanding() == fresh

    def test_recording_a_flagged_id_resolves_it(self):
        tracker = GapTracker()
        tracker.note_recorded(MessageId(SENDER, 1))
        tracker.note_recorded(MessageId(SENDER, 3))
        assert tracker.outstanding() == [MessageId(SENDER, 2)]
        tracker.note_recorded(MessageId(SENDER, 2))
        assert tracker.outstanding() == []

    def test_abandoned_ids_are_never_reflagged(self):
        tracker = GapTracker()
        tracker.note_recorded(MessageId(SENDER, 1))
        tracker.note_recorded(MessageId(SENDER, 3))
        hole = MessageId(SENDER, 2)
        tracker.abandon(hole)
        assert not tracker.flag(hole)
        assert tracker.outstanding() == []
        assert hole in tracker.gave_up

    def test_frontiers_are_per_sender(self):
        tracker = GapTracker()
        other = ProcessId(3, 1)
        tracker.note_recorded(MessageId(SENDER, 2))
        assert tracker.note_recorded(MessageId(other, 1)) == []


# ----------------------------------------------------------------------
# wiring: buffers fill from the wire, loss opens holes, rounds close them
# ----------------------------------------------------------------------
def build_gossip_system(loss_rate=0.0, seed=7, **overrides):
    system = System(SystemConfig(nodes=2, master_seed=seed, gossip=True,
                                 gossip_loss_rate=loss_rate,
                                 gossip_round_ms=100.0, **overrides))
    register_test_programs(system)
    system.boot()
    return system


def drive_to_completion(system, driver_pid, n, budget_ms=300_000):
    deadline = system.engine.now + budget_ms
    while system.engine.now < deadline:
        driver = system.program_of(driver_pid)
        if driver is not None and len(driver.replies) >= n:
            return driver
        system.run(1000)
    return system.program_of(driver_pid)


def recorded_sets(system):
    """Per-process recorded id sets (the convergence contract's unit)."""
    return {pid: set(record.recorded_ids)
            for pid, record in system.recorder.db.records.items()}


def test_buffers_fill_from_published_traffic():
    system = build_gossip_system()
    counter_pid, driver_pid = run_counter_scenario(system, n=10)
    drive_to_completion(system, driver_pid, 10)
    assert all(len(node.gossip_buffer) > 0
               for node in system.nodes.values())
    snap = system.metrics_snapshot()
    assert snap["gossip.buffered"] > 0


def test_reception_loss_opens_holes_and_rounds_repair_them():
    system = build_gossip_system(loss_rate=0.3)
    counter_pid, driver_pid = run_counter_scenario(system, n=30)
    driver = drive_to_completion(system, driver_pid, 30)
    assert driver.replies == expected_totals(30)
    system.run(2000)                 # a few extra rounds to converge
    snap = system.metrics_snapshot()
    assert snap["gossip.receptions_dropped"] > 0
    assert snap["gossip.messages_repaired"] > 0
    assert snap["gossip.outstanding"] == 0
    assert snap["gossip.gave_up"] == 0
    # every dropped reception was repaired into the log: the recorded
    # sets match a lossless run of the same seed
    lossless = build_gossip_system(loss_rate=0.0)
    c2, d2 = run_counter_scenario(lossless, n=30)
    drive_to_completion(lossless, d2, 30)
    lossless.run(2000)
    assert recorded_sets(system) == recorded_sets(lossless)


def test_zero_rate_loss_makes_no_rng_draws():
    """gossip_loss_rate=0 must leave legacy seeds byte-identical: the
    loss hook exists but never touches its stream."""
    system = build_gossip_system(loss_rate=0.0)
    assert system.reception_loss is None      # hook not even installed
    assert system.medium.recorder_loss is None
    counter_pid, driver_pid = run_counter_scenario(system, n=10)
    drive_to_completion(system, driver_pid, 10)
    snap = system.metrics_snapshot()
    assert "gossip.receptions_dropped" not in snap
    assert snap["gossip.pulls_lost"] == 0


def test_recovery_pulls_hole_before_replay():
    """A counter crash while the log still has holes: recovery waits
    for the pull rounds, then replays — the workload stays exact."""
    system = build_gossip_system(loss_rate=0.25, seed=11)
    counter_pid, driver_pid = run_counter_scenario(system, n=40)
    system.run(900)
    system.crash_process(counter_pid)
    driver = drive_to_completion(system, driver_pid, 40)
    assert driver.replies == expected_totals(40)
    counter = system.program_of(counter_pid)
    # Repaired messages replay at their (late) repair arrival index, so
    # the interleave may differ from first transmission — what converges
    # is the set (docs/GOSSIP.md), and the commutative sum stays exact.
    assert sorted(counter.seen) == list(range(1, 41))
    snap = system.metrics_snapshot()
    assert snap["gossip.receptions_dropped"] > 0


def test_spare_takeover_gets_a_fresh_buffer():
    system = System(SystemConfig(nodes=2, gossip=True,
                                 reboot_policy="spare"))
    register_test_programs(system)
    system.boot()
    counter_pid, driver_pid = run_counter_scenario(system, n=20)
    system.run(900)
    old_buffer = system.nodes[2].gossip_buffer
    system.crash_node(2)
    driver = drive_to_completion(system, driver_pid, 20)
    assert driver.replies == expected_totals(20)
    spare = system.nodes[2]
    assert spare.gossip_buffer is not None
    assert spare.gossip_buffer is not old_buffer


# ----------------------------------------------------------------------
# the acceptance scenario: recorder outage mid-traffic
# ----------------------------------------------------------------------
def outage_campaign():
    return ChaosCampaign([CrashRecorder(1000.0),
                          RestartRecorder(2200.0),
                          CrashNode(3600.0, node=2)],
                         name="gossip_acceptance")


def run_outage(gossip: bool):
    config = SystemConfig(nodes=2, master_seed=1983,
                          checkpoint_policy="storage", gossip=gossip,
                          transport_max_retries=6)
    return run_scenario(outage_campaign(), config, pairs=1, messages=30,
                        settle_ms=8000.0)


def test_recorder_outage_heals_by_pull_and_recovery_is_exact():
    result = run_outage(gossip=True)
    assert result.ok, result.report.format()
    assert result.totals == [result.expected]
    snap = result.system.metrics_snapshot()
    assert snap["gossip.messages_repaired"] > 0
    assert snap["gossip.outstanding"] == 0
    assert snap["gossip.gave_up"] == 0
    assert result.system.dead_letters == []


def test_recorder_outage_without_gossip_dead_letters():
    """The contrast arm: same faults, no repair path, tight retry
    budget — the guaranteed sends give up and the workload diverges."""
    result = run_outage(gossip=False)
    assert not result.ok
    assert len(result.system.dead_letters) > 0
    assert result.totals != [result.expected]
    # satellite 2: the ledger entries are structured and field-named
    letter = result.system.dead_letters[0]
    origin, payload, attempts = letter      # tuple shape preserved
    assert letter.origin == origin
    assert letter.attempts == attempts >= 1


def test_acceptance_scenario_is_deterministic():
    first = run_outage(gossip=True)
    second = run_outage(gossip=True)
    assert first.event_stream() == second.event_stream()


# ----------------------------------------------------------------------
# the range-based pull wire format
# ----------------------------------------------------------------------
def test_pull_ranges_compresses_contiguous_runs():
    a, b = ProcessId(1, 1), ProcessId(2, 1)
    batch = [MessageId(a, 3), MessageId(a, 4), MessageId(a, 5),
             MessageId(a, 9), MessageId(b, 1), MessageId(b, 2)]
    assert pull_ranges(batch) == [((1, 1), 3, 6), ((1, 1), 9, 10),
                                  ((2, 1), 1, 3)]
    assert pull_ranges([]) == []


def test_range_pulls_cost_fewer_control_bytes_on_contiguous_holes():
    """A recorder outage opens one long contiguous hole per sender,
    which the `[lo, hi)` encoding (32 + 12 bytes per range) ships in a
    handful of runs however many messages the hole spans."""
    result = run_outage(gossip=True)
    snap = result.system.metrics_snapshot()
    delivered = snap["gossip.pulls_sent"] - snap["gossip.pulls_lost"]
    ranges_per_pull = (snap["gossip.pull_bytes"] / delivered - 32) / 12
    assert 1 <= ranges_per_pull < snap["gossip.gaps_flagged"] / 4


# ----------------------------------------------------------------------
# the chaos action
# ----------------------------------------------------------------------
def test_gossip_loss_action_sets_and_restores_rate():
    campaign = ChaosCampaign([GossipLoss(800.0, rate=0.5,
                                         duration_ms=1000.0)],
                             name="loss_window")
    config = SystemConfig(nodes=2, master_seed=5,
                          checkpoint_policy="storage", gossip=True)
    result = run_scenario(campaign, config, pairs=1, messages=25,
                          settle_ms=6000.0)
    assert result.ok, result.report.format()
    system = result.system
    assert system.reception_loss is not None
    assert system.reception_loss.rate == 0.0   # restored after the window
    snap = system.metrics_snapshot()
    assert snap["gossip.receptions_dropped"] > 0
    assert snap["gossip.outstanding"] == 0


def test_gossip_loss_action_round_trips_json():
    from repro.chaos import action_from_dict
    action = GossipLoss(500.0, rate=0.3, duration_ms=200.0)
    assert action_from_dict(action.to_dict()) == action


# ----------------------------------------------------------------------
# satellite 4: the hypothesis differential — recorder-only lossless vs
# recorder+gossip lossy converge to identical recorded sets whenever
# the repair converged (nothing outstanding, nothing abandoned)
# ----------------------------------------------------------------------
def run_plain(seed, n, loss_rate, depth):
    campaign = ChaosCampaign([], name="differential")
    config = SystemConfig(nodes=2, master_seed=seed,
                          gossip=loss_rate is not None,
                          gossip_loss_rate=loss_rate or 0.0,
                          gossip_buffer_depth=depth, gossip_round_ms=100.0,
                          gossip_max_retries=16)
    return run_scenario(campaign, config, pairs=1, messages=n,
                        settle_ms=4000.0)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(1, 10_000),
       loss=st.floats(0.0, 0.4),
       depth=st.sampled_from([64, 256]),
       n=st.integers(4, 12))
def test_lossy_gossip_converges_to_lossless_recorded_sets(
        seed, loss, depth, n):
    lossless = run_plain(seed, n, None, depth)
    assert lossless.ok, lossless.report.format()
    lossy = run_plain(seed, n, loss, depth)
    snap = lossy.system.metrics_snapshot()
    assume(lossy.ok)
    assume(snap["gossip.outstanding"] == 0 and snap["gossip.gave_up"] == 0)
    assert recorded_sets(lossy.system) == recorded_sets(lossless.system)
    assert lossy.totals == lossless.totals == [lossless.expected]


# ----------------------------------------------------------------------
# the incremental sweep against the full rescan it replaced
# ----------------------------------------------------------------------
def full_rescan(coordinator):
    """The deleted ``_sweep_advertisements``, transcribed as a query:
    the messages a walk over every up node's *whole* ring would flag
    now, by id, in the order it would flag them."""
    system = coordinator.system
    recorder, tracker = system.recorder, coordinator.tracker
    flagged = {}
    for node in system.nodes.values():
        buffer = node.gossip_buffer
        if buffer is None or not node.up:
            continue
        for msg_id, message in buffer._ring.items():
            if (msg_id in tracker.missing or msg_id in tracker.gave_up
                    or msg_id in flagged):
                continue
            record = recorder.db.get(message.dst)
            if record is not None:
                if msg_id in record.recorded_ids:
                    continue
                if not record.recoverable:
                    continue
            flagged[msg_id] = message
    return flagged


class SweepWitness:
    """Runs :func:`full_rescan` beside every sweep of a system.

    An id is *settled* once a sweep has run since it was last on the
    wire. The incremental sweep must flag exactly the unsettled ids the
    rescan would, in its order; and the rescan may re-open a settled id
    only when the destination's database entry was created after that
    sighting — history addressed to a *previous* entry, which a repair
    would log into the wrong incarnation (``reopened`` counts them).
    ``resighted`` counts the flags that took a *repeat* sighting: ids an
    earlier sweep had already examined.
    """

    def __init__(self, system):
        self.system = system
        self.coordinator = coordinator = system.gossip
        self.clock = 0            # orders sightings, creations, sweeps
        self.first, self.sighted, self.created, self.swept = {}, {}, {}, 0
        self.rounds = self.flagged = self.reopened = self.resighted = 0
        self._sweep = coordinator._sweep_advertisements
        coordinator._sweep_advertisements = self.sweep
        system.medium.gossip_tap = self.tap
        self._create = system.recorder.db.create
        system.recorder.db.create = self.create

    def tick(self):
        self.clock += 1
        return self.clock

    def tap(self, frame):
        body = getattr(frame.payload, "body", None)
        if isinstance(body, Message):
            self.sighted[body.msg_id] = self.tick()
            self.first.setdefault(body.msg_id, self.clock)
        self.coordinator.observe_wire(frame)

    def create(self, pid, *args, **kwargs):
        existing = self.system.recorder.db.get(pid)
        record = self._create(pid, *args, **kwargs)
        if record is not existing:
            self.created[pid] = self.tick()
        return record

    def sweep(self):
        oracle = full_rescan(self.coordinator)
        settled = [m for m in oracle if self.sighted[m] < self.swept]
        for msg_id in settled:
            assert (self.created.get(oracle[msg_id].dst, 0)
                    > self.sighted[msg_id]), \
                f"{msg_id} re-opened although its record was not replaced"
        tracker, flagged = self.coordinator.tracker, []
        flag = tracker.flag
        tracker.flag = lambda m: flag(m) and not flagged.append(m)
        try:
            self._sweep()
        finally:
            tracker.flag = flag
        assert flagged == [m for m in oracle if m not in settled]
        self.resighted += sum(self.first[m] < self.swept for m in flagged)
        self.swept = self.tick()
        self.rounds += 1
        self.flagged += len(flagged)
        self.reopened += len(settled)


def notify_recreated(system, pid, recoverable):
    """The recorder is told ``pid`` was destroyed and created again
    (the notices a kernel sends; the process itself runs on)."""
    kernel = system.nodes[1].kernel
    kernel.send_control_to_recorder(Control(
        "process_destroyed", {"pid": pid, "node": pid.node}))
    kernel.send_control_to_recorder(Control("process_created", {
        "pid": pid, "image": "test/counter", "args": (),
        "initial_links": (), "recoverable": recoverable,
        "state_pages": 4, "node": pid.node}))


def witnessed_system(seed, medium, loss, depth, n=60):
    """Three nodes, two closed loops from node 1: one to a published
    counter on node 2, one to an unpublished (``recoverable=False``,
    so ``selective`` skips it) counter on node 3."""
    system = System(SystemConfig(
        nodes=3, master_seed=seed, medium=medium, gossip=True,
        gossip_loss_rate=loss, gossip_round_ms=100.0,
        gossip_buffer_depth=depth))
    register_test_programs(system)
    system.boot()
    witness = SweepWitness(system)
    published, _ = run_counter_scenario(system, n=n)
    unpublished = system.spawn_program("test/counter", node=3,
                                       recoverable=False)
    system.spawn_program("test/driver", args=(tuple(unpublished), n), node=1)
    return system, witness, {"published": published,
                             "unpublished": unpublished}


AT_MS = st.floats(300.0, 3000.0)
SWEEP_EVENTS = st.one_of(
    st.tuples(AT_MS, st.just("crash_node"), st.sampled_from([2, 3])),
    st.tuples(AT_MS, st.just("recorder_outage"), st.floats(100.0, 1500.0)),
    st.tuples(AT_MS, st.just("recreate"),
              st.tuples(st.sampled_from(["published", "unpublished"]),
                        st.booleans())),
)


def run_witnessed(seed, medium, loss, depth, events):
    system, witness, pids = witnessed_system(seed, medium, loss, depth)
    for at, kind, arg in sorted(events):
        system.run(max(0.0, at - system.engine.now))
        if kind == "crash_node" and system.nodes[arg].up:
            system.crash_node(arg)
        elif kind == "recorder_outage" and system.recorder.up:
            system.crash_recorder()
            system.engine.schedule(arg, system.restart_recorder)
        elif kind == "recreate":
            notify_recreated(system, pids[arg[0]], recoverable=arg[1])
    system.run(3000)
    assert witness.rounds > 0
    return witness


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(1, 10_000),
       medium=st.sampled_from(["broadcast", "csma_ethernet", "token_ring"]),
       loss=st.sampled_from([0.0, 0.1, 0.3]),
       depth=st.sampled_from([4, 8, 64]),
       events=st.lists(SWEEP_EVENTS, max_size=5))
def test_incremental_sweep_flags_what_the_full_rescan_flagged(
        seed, medium, loss, depth, events):
    """Reception loss, node crashes (the watchdog reboots and recovers
    them), recorder outages, buffers small enough to evict, a
    destination destroyed and re-created (published or not, either
    way round): every round satisfies :class:`SweepWitness`."""
    run_witnessed(seed, medium, loss, depth, events)


def test_reception_loss_and_the_tap_reach_the_ring():
    """Both gossip hooks used to be wired to the bus media's shared
    delivery loop only: on ``token_ring`` no reception was ever dropped
    and no buffer ever filled, silently."""
    system, witness, pids = witnessed_system(seed=1983, medium="token_ring",
                                             loss=0.2, depth=64, n=20)
    system.run(6000)
    snapshot = system.metrics_snapshot()
    assert snapshot["gossip.receptions_dropped"] > 0
    assert snapshot["gossip.buffered"] > 0
    assert snapshot["gossip.messages_repaired"] > 0
    assert witness.rounds > 0
    assert len(system.recorder.db.get(pids["published"]).arrivals) == 20


def test_flagged_id_overheard_again_undelivered_is_reexamined():
    """Why a *repeat* sighting counts as a sighting. The recorder misses
    a message to a node that has just crashed; the sweep flags it. The
    sender, unacknowledged, retransmits; this time the recorder hears
    it, which resolves the flag — but no delivery is observed, so the
    message is staged, not recorded, and a full rescan flags it again.
    A sweep that read first sightings only would stay silent."""
    witness = run_witnessed(seed=1, medium="broadcast", loss=0.3, depth=64,
                            events=[(1500.0, "crash_node", 2)])
    assert witness.resighted >= 1


def test_replaced_record_does_not_reopen_settled_history():
    """Where the two sweeps part, and why the new side is right. The
    recorder learns that the counter was destroyed and created again:
    the entry that held its history is replaced by an empty one. The
    full rescan then takes every still-buffered message to the *old*
    incarnation for a hole, and its repairs would log them into the
    new one, to be replayed to a process that never received them. The
    incremental sweep re-reads only what is on the wire again."""
    system, witness, pids = witnessed_system(seed=7, medium="broadcast",
                                             loss=0.0, depth=64, n=15)
    system.run(1500)
    assert witness.flagged == 0 and witness.reopened == 0
    before = set(system.recorder.db.get(pids["published"]).recorded_ids)
    assert before
    notify_recreated(system, pids["published"], recoverable=True)
    system.run(1000)
    assert witness.reopened > 0                 # the rescan's holes
    assert system.metrics_snapshot()["gossip.gaps_flagged"] == 0
    assert not before & system.recorder.db.get(
        pids["published"]).recorded_ids


def test_idle_sweep_cost_does_not_depend_on_buffer_depth():
    """With full buffers and nothing new on the wire, a gossip round
    costs the same host work whatever the buffers hold (it used to
    re-read every id of every buffer, every round)."""
    def idle_round_calls(depth):
        system = build_gossip_system(gossip_buffer_depth=depth)
        _, driver_pid = run_counter_scenario(system, n=40)
        drive_to_completion(system, driver_pid, 40)
        system.run(1000)
        assert all(len(node.gossip_buffer) == depth
                   for node in system.nodes.values())
        return count_calls(system.gossip._run_round)

    assert idle_round_calls(8) == idle_round_calls(64)
