"""Unit tests for the cost model, NodeCpu, and assorted edge cases."""

import pytest

from repro import Program, System, SystemConfig
from repro.demos.costs import CostModel
from repro.demos.ids import ProcessId, kernel_pid
from repro.demos.kernel import NodeCpu
from repro.demos.links import Link
from repro.sim import Engine

from conftest import register_test_programs, run_counter_scenario


class TestCostModel:
    def test_figure_5_7_decomposition(self):
        costs = CostModel()
        without = (costs.message_cpu_ms(False, "send")
                   + costs.message_cpu_ms(False, "recv"))
        with_pub = (costs.message_cpu_ms(True, "send")
                    + costs.message_cpu_ms(True, "recv"))
        assert without == pytest.approx(9.0)
        assert with_pub == pytest.approx(35.0)
        assert with_pub - without == pytest.approx(26.0)

    def test_publish_paths(self):
        costs = CostModel()
        assert costs.publish_cpu_ms("full_protocol") == 57.0
        assert costs.publish_cpu_ms("inlined") == 12.0
        assert costs.publish_cpu_ms("media_tap") == 0.8

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            CostModel().publish_cpu_ms("quantum")

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError):
            CostModel().message_cpu_ms(True, "sideways")


class TestNodeCpu:
    def test_charge_accumulates_serially(self):
        engine = Engine()
        cpu = NodeCpu(engine)
        assert cpu.charge(5.0) == 5.0
        assert cpu.charge(3.0) == 8.0

    def test_idle_gap_not_charged(self):
        engine = Engine()
        cpu = NodeCpu(engine)
        cpu.charge(2.0)
        engine.schedule(10.0, lambda: None)
        engine.run()
        # CPU idled from t=2 to t=10; next charge starts at now.
        assert cpu.charge(1.0) == 11.0
        assert cpu.total_ms == 3.0

    def test_kernel_and_user_buckets(self):
        cpu = NodeCpu(Engine())
        cpu.charge(4.0)
        cpu.charge(2.0, user=True)
        assert cpu.kernel_ms.value == 4.0
        assert cpu.user_ms.value == 2.0

    def test_run_fires_at_completion(self):
        engine = Engine()
        cpu = NodeCpu(engine)
        at = []
        cpu.run(7.0, lambda: at.append(engine.now))
        engine.run()
        assert at == [7.0]

    def test_reset_clears_horizon_not_accounting(self):
        engine = Engine()
        cpu = NodeCpu(engine)
        cpu.charge(100.0)
        cpu.reset()
        assert cpu.charge(1.0) == 1.0
        assert cpu.kernel_ms.value == 101.0


class TestKernelEdgeCases:
    def test_message_to_dead_process_dropped(self, two_node_system):
        system = two_node_system
        pid = system.spawn_program("test/counter", node=2)
        system.run(300)
        system.nodes[2].kernel.destroy_process(pid)
        k1 = system.nodes[1].kernel
        sender = k1.processes[kernel_pid(1)]
        link = k1.forge_link(sender, Link(dst=pid))
        k1.syscall_send(sender, link, ("add", 1), None, 64)
        system.run(2000)
        assert system.obs.bus.count("kernel", str(pid)) >= 1   # drop trace

    def test_keep_link_duplicates(self, two_node_system):
        system = two_node_system
        pid = system.spawn_program("test/echo", node=1)
        system.run(300)
        kernel = system.nodes[1].kernel
        pcb = system.nodes[1].kernel.processes[pid]
        before = len(pcb.links)
        target = kernel.forge_link(pcb, Link(dst=pid))
        gift = kernel.forge_link(pcb, Link(dst=pid, code=5))
        kernel.syscall_send(pcb, target, ("x",), gift, 64, True)
        system.run(1000)
        # keep_link=True: the passed link stays AND a copy arrived.
        assert pcb.links.has(gift)

    def test_pass_missing_link_fails_send(self, two_node_system):
        system = two_node_system
        pid = system.spawn_program("test/counter", node=1)
        system.run(300)
        kernel = system.nodes[1].kernel
        pcb = kernel.processes[pid]
        link = kernel.forge_link(pcb, Link(dst=pid))
        ok = kernel.syscall_send(pcb, link, ("x",), 999, 64)
        assert ok is False

    def test_unpublished_system_skips_recorder_controls(self):
        system = System(SystemConfig(nodes=1, publishing=False))
        register_test_programs(system)
        system.boot()
        pid = system.spawn_program("test/counter", node=1)
        system.run(500)
        # No recorder exists; nothing crashed trying to notify one.
        assert system.recorder is None
        assert system.process_state(pid) == "running"


class TestProcessManagerJobs:
    def test_job_done_decrements(self, two_node_system):
        system = two_node_system
        services = system.config.services_node
        pm_pid = ProcessId(services, 2)
        pm = system.nodes[services].kernel.processes[pm_pid].program
        requester = ProcessId(1, 77)
        pm.jobs[tuple(requester)] = 3
        kernel = system.nodes[1].kernel
        sender = kernel.processes[kernel_pid(1)]
        # Impersonate the requester's job_done (tests drive it directly).
        from repro.demos.messages import DeliveredMessage
        pm._handle_request(
            type("Ctx", (), {"send": lambda *a, **k: True,
                             "create_link": lambda *a, **k: 1,
                             "destroy_link": lambda *a, **k: True})(),
            DeliveredMessage(code=0, channel=0,
                             body=("job_done", tuple(requester)),
                             src=requester))
        assert pm.jobs[tuple(requester)] == 2
