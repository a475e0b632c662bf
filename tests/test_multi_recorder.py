"""Multi-recorder configurations (§6.3): all-recorder acknowledgement,
priority-vector recovery coordination, and takeover on recorder death."""

from repro import System, SystemConfig

from conftest import expected_totals, register_test_programs


def build_dual_recorder_system(recorders=2, node_2_ranks=(91, 90)):
    """Replicated recorders (90, 91, ...), two nodes (1, 2), full
    publishing — through the one builder. System ranks the recorders
    by index for every node; node 2's vector is overridden
    unless ``node_2_ranks`` is None (the coordinators share the one
    vectors dict)."""
    system = System(SystemConfig(nodes=2, recorder_node_id=90,
                                 recorder_shards=recorders,
                                 placement_policy="replica"))
    register_test_programs(system)
    if node_2_ranks is not None:
        system.recovery.coordinator.vectors[2] = list(node_2_ranks)
    system.boot()
    return system


def spawn_pair(system, n=30):
    """A counter on node 2 driven from node 1."""
    counter_pid = system.spawn_program("test/counter", node=2)
    driver_pid = system.spawn_program("test/driver",
                                      args=(tuple(counter_pid), n), node=1)
    system.run(200)
    return counter_pid, driver_pid


def run_until(system, done, deadline_ms):
    deadline = system.engine.now + deadline_ms
    while system.engine.now < deadline and not done():
        system.run(1000)


class TestDualRecorders:
    def test_both_recorders_record_everything(self):
        system = build_dual_recorder_system()
        counter_pid, driver_pid = spawn_pair(system, n=10)
        system.run(10_000)
        rec_a = system.recorders[0].db.get(counter_pid)
        rec_b = system.recorders[1].db.get(counter_pid)
        assert rec_a is not None and rec_b is not None
        assert len(rec_a.arrivals) == len(rec_b.arrivals) == 10

    def test_top_priority_recorder_recovers_node(self):
        system = build_dual_recorder_system()
        managers = system.recoveries
        counter_pid, driver_pid = spawn_pair(system, n=60)
        system.run(1000)
        system.crash_node(2)
        # Node 2's vector is [91, 90]: recorder 91 should do the work.
        run_until(system,
                  lambda: system.process_state(counter_pid) == "running",
                  120_000)
        assert system.process_state(counter_pid) == "running"
        assert managers[1].stats.recoveries_completed >= 1
        assert managers[0].coordinator.offers_sent >= 1
        assert managers[0].stats.recoveries_completed == 0

    def test_lower_priority_takes_over_when_top_is_dead(self):
        system = build_dual_recorder_system()
        managers = system.recoveries
        counter_pid, driver_pid = spawn_pair(system, n=60)
        system.run(1000)
        # Kill recorder 91 — the top-priority recorder for node 2. The
        # survivor (90) must supply its acknowledgements and recover.
        system.crash_recorder(1)
        system.crash_node(2)
        run_until(system,
                  lambda: system.process_state(counter_pid) == "running",
                  180_000)
        assert system.process_state(counter_pid) == "running"
        assert managers[0].coordinator.takeovers >= 1
        assert managers[0].stats.recoveries_completed >= 1

    def test_next_recorder_in_the_vector_takes_over_a_dead_primary(self):
        """§6.3 takeover from a `SystemConfig`: the primary (90, the
        recorder every kernel addresses) is down when the counter's
        node fails; 91 and 92 offer the job up the placement's vector
        [90, 91, 92], 90 stays silent, 91 takes over, and the workload
        lands exactly."""
        system = build_dual_recorder_system(recorders=3, node_2_ranks=None)
        vectors = system.recovery.coordinator.vectors
        assert vectors[2] == [90, 91, 92]
        managers = system.recoveries
        counter_pid, driver_pid = spawn_pair(system, n=40)
        system.run(600)
        system.crash_recorder(0)
        system.crash_node(2)
        run_until(system,
                  lambda: len(system.program_of(driver_pid).replies) >= 40,
                  180_000)
        assert system.program_of(driver_pid).replies == expected_totals(40)
        assert system.program_of(counter_pid).total == sum(range(1, 41))
        assert managers[1].coordinator.takeovers >= 1
        assert managers[1].stats.recoveries_completed >= 1
        assert managers[0].stats.recoveries_completed == 0
        assert managers[2].stats.recoveries_completed == 0
        assert not system.dead_letters

    def test_one_recorder_miss_blocks_frame_for_everyone(self):
        system = build_dual_recorder_system()
        # Corrupt the next data frame at recorder 91 only.
        system.faults.corrupt_next(
            lambda f, node: node == 91 and f.kind.value == "data")
        counter_pid, driver_pid = spawn_pair(system, n=5)
        system.run(30_000)
        # Retransmission healed it: both recorders hold identical logs.
        rec_a = system.recorders[0].db.get(counter_pid)
        rec_b = system.recorders[1].db.get(counter_pid)
        a_ids = [lm.message.msg_id for lm in rec_a.arrivals]
        b_ids = [lm.message.msg_id for lm in rec_b.arrivals]
        assert a_ids == b_ids
        driver = system.program_of(driver_pid)
        assert len(driver.replies) == 5


def test_crashed_recorder_window_is_counted_not_silent():
    """Bugfix regression: while recorder 91 is down, the survivor keeps
    publish acks flowing (no wedge) but every missing copy is tallied —
    the outage window is observable, never silently 'stored'."""
    system = build_dual_recorder_system()
    medium = system.medium
    counter_pid, driver_pid = spawn_pair(system, n=40)
    system.run(800)
    system.crash_recorder(1)
    before = medium.stats.recorder_copies_missed.value
    run_until(system,
              lambda: len(system.program_of(driver_pid).replies) >= 40,
              180_000)
    driver = system.program_of(driver_pid)
    assert len(driver.replies) == 40            # traffic never wedged
    assert medium.stats.recorder_copies_missed.value > before
    # and the survivor's log is complete for the whole window
    record = system.recorders[0].db.get(counter_pid)
    seqs = sorted(lm.message.msg_id.seq for lm in record.arrivals
                  if not lm.message.deliver_to_kernel)
    assert seqs == sorted(set(seqs))            # no duplicates either
