"""Multi-recorder configurations (§6.3): all-recorder acknowledgement,
priority-vector recovery coordination, and takeover on recorder death."""

import pytest

from repro.demos.costs import CostModel
from repro.demos.ids import ProcessId, kernel_pid
from repro.demos.kernel import KernelConfig
from repro.demos.links import Link
from repro.demos.node import Node
from repro.demos.process import ProgramRegistry
from repro.net.media import PerfectBroadcast
from repro.net.transport import TransportConfig
from repro.publishing.multi_recorder import MultiRecorderCoordinator, PriorityVectors
from repro.publishing.recorder import Recorder, RecorderConfig
from repro.publishing.recovery_manager import RecoveryManager
from repro.sim.engine import Engine
from repro.errors import RecoveryError

from conftest import CounterProgram, DriverProgram


def build_dual_recorder_system():
    """Two recorders (90, 91), two nodes (1, 2), full publishing."""
    engine = Engine()
    medium = PerfectBroadcast(engine, enforce_recorder_ack=True)
    registry = ProgramRegistry()
    from repro.demos.kernel_process import KERNEL_PROCESS_IMAGE, KernelProcessProgram
    registry.register(KERNEL_PROCESS_IMAGE, KernelProcessProgram)
    registry.register("test/counter", CounterProgram)
    registry.register("test/driver", DriverProgram)

    recorders = []
    managers = []
    vectors = PriorityVectors({1: [90, 91], 2: [91, 90]})
    for recorder_id in (90, 91):
        config = RecorderConfig(node_id=recorder_id,
                                transport=TransportConfig(per_destination=True))
        recorder = Recorder(engine, medium, config)
        manager = RecoveryManager(engine, recorder, node_ids=[1, 2])
        manager.coordinator = MultiRecorderCoordinator(engine, manager, vectors)
        recorders.append(recorder)
        managers.append(manager)

    nodes = {}
    for node_id in (1, 2):
        kernel_config = KernelConfig(publishing=True, recorder_node=90,
                                     costs=CostModel(),
                                     transport=TransportConfig(
                                         require_recorder_ack=True))
        nodes[node_id] = Node(engine, node_id, medium, kernel_config, registry)
        nodes[node_id].boot()

    for manager in managers:
        manager.start()
        manager.node_restarter = lambda nid: engine.schedule(
            1000.0, nodes[nid].restart)
    engine.run(until=500.0)
    return engine, medium, recorders, managers, nodes, registry


def spawn_pair(engine, nodes, n=30):
    """A counter on node 2 driven from node 1."""
    k2, k1 = nodes[2].kernel, nodes[1].kernel
    kp2 = k2.processes[kernel_pid(2)].program
    counter_pid = kp2._allocate(2)
    k2.create_process("test/counter", pid=counter_pid,
                      initial_links=kp2._with_nls(()))
    kp1 = k1.processes[kernel_pid(1)].program
    driver_pid = kp1._allocate(1)
    k1.create_process("test/driver", args=(tuple(counter_pid), n),
                      pid=driver_pid, initial_links=kp1._with_nls(()))
    engine.run(until=engine.now + 200)
    return counter_pid, driver_pid


class TestPriorityVectors:
    def test_higher_priority_list(self):
        vectors = PriorityVectors({1: [90, 91, 92]})
        assert vectors.higher_priority(1, 90) == []
        assert vectors.higher_priority(1, 91) == [90]
        assert vectors.higher_priority(1, 92) == [90, 91]

    def test_unknown_node_raises(self):
        with pytest.raises(RecoveryError):
            PriorityVectors({}).for_node(5)

    def test_recorder_not_in_vector_defers_to_all(self):
        vectors = PriorityVectors({1: [90, 91]})
        assert vectors.higher_priority(1, 99) == [90, 91]


class TestDualRecorders:
    def test_both_recorders_record_everything(self):
        engine, medium, recorders, managers, nodes, _ = \
            build_dual_recorder_system()
        counter_pid, driver_pid = spawn_pair(engine, nodes, n=10)
        engine.run(until=engine.now + 10_000)
        rec_a = recorders[0].db.get(counter_pid)
        rec_b = recorders[1].db.get(counter_pid)
        assert rec_a is not None and rec_b is not None
        assert len(rec_a.arrivals) == len(rec_b.arrivals) == 10

    def test_top_priority_recorder_recovers_node(self):
        engine, medium, recorders, managers, nodes, _ = \
            build_dual_recorder_system()
        counter_pid, driver_pid = spawn_pair(engine, nodes, n=60)
        engine.run(until=engine.now + 1000)
        nodes[2].crash()
        # Node 2's vector is [91, 90]: recorder 91 should do the work.
        deadline = engine.now + 120_000
        while engine.now < deadline:
            pcb = nodes[2].kernel.processes.get(counter_pid)
            if pcb is not None and pcb.state.value == "running":
                break
            engine.run(until=engine.now + 1000)
        assert nodes[2].kernel.processes[counter_pid].state.value == "running"
        assert managers[1].stats.recoveries_completed >= 1
        assert managers[0].coordinator.offers_sent >= 1
        assert managers[0].stats.recoveries_completed == 0

    def test_lower_priority_takes_over_when_top_is_dead(self):
        engine, medium, recorders, managers, nodes, _ = \
            build_dual_recorder_system()
        counter_pid, driver_pid = spawn_pair(engine, nodes, n=60)
        engine.run(until=engine.now + 1000)
        # Kill recorder 91 — the top-priority recorder for node 2. The
        # survivor (90) must supply its acknowledgements and recover.
        recorders[1].crash()
        managers[1].stop()
        nodes[2].crash()
        deadline = engine.now + 180_000
        while engine.now < deadline:
            pcb = nodes[2].kernel.processes.get(counter_pid)
            if pcb is not None and pcb.state.value == "running":
                break
            engine.run(until=engine.now + 1000)
        assert nodes[2].kernel.processes[counter_pid].state.value == "running"
        assert managers[0].coordinator.takeovers >= 1
        assert managers[0].stats.recoveries_completed >= 1

    def test_one_recorder_miss_blocks_frame_for_everyone(self):
        engine, medium, recorders, managers, nodes, _ = \
            build_dual_recorder_system()
        # Corrupt the next data frame at recorder 91 only.
        medium.faults.corrupt_next(
            lambda f, node: node == 91 and f.kind.value == "data")
        counter_pid, driver_pid = spawn_pair(engine, nodes, n=5)
        engine.run(until=engine.now + 30_000)
        # Retransmission healed it: both recorders hold identical logs.
        rec_a = recorders[0].db.get(counter_pid)
        rec_b = recorders[1].db.get(counter_pid)
        a_ids = [lm.message.msg_id for lm in rec_a.arrivals]
        b_ids = [lm.message.msg_id for lm in rec_b.arrivals]
        assert a_ids == b_ids
        driver = nodes[1].kernel.processes[driver_pid].program
        assert len(driver.replies) == 5


def test_crashed_recorder_window_is_counted_not_silent():
    """Bugfix regression: while recorder 91 is down, the survivor keeps
    publish acks flowing (no wedge) but every missing copy is tallied —
    the outage window is observable, never silently 'stored'."""
    engine, medium, recorders, managers, nodes, _ = \
        build_dual_recorder_system()
    counter_pid, driver_pid = spawn_pair(engine, nodes, n=40)
    engine.run(until=engine.now + 800)
    recorders[1].crash()
    managers[1].stop()
    before = medium.stats.recorder_copies_missed.value
    deadline = engine.now + 180_000
    while engine.now < deadline:
        driver = nodes[1].kernel.processes.get(driver_pid)
        if driver is not None and len(driver.program.replies) >= 40:
            break
        engine.run(until=engine.now + 1000)
    driver = nodes[1].kernel.processes[driver_pid].program
    assert len(driver.replies) == 40            # traffic never wedged
    assert medium.stats.recorder_copies_missed.value > before
    # and the survivor's log is complete for the whole window
    record = recorders[0].db.get(counter_pid)
    seqs = sorted(lm.message.msg_id.seq for lm in record.arrivals
                  if not lm.message.deliver_to_kernel)
    assert seqs == sorted(set(seqs))            # no duplicates either
