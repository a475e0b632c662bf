"""Tests for the System builder, its configuration surface, and the CLI."""

import pytest

from repro import System, SystemConfig
from repro.__main__ import main as cli_main
from repro.errors import ReproError

from conftest import register_test_programs


class TestSystemConfig:
    def test_unknown_medium_rejected(self):
        with pytest.raises(ReproError):
            System(SystemConfig(medium="carrier-pigeon"))

    def test_no_publishing_builds_no_recorder(self):
        system = System(SystemConfig(nodes=1, publishing=False))
        assert system.recorder is None
        assert system.recovery is None

    def test_crash_recorder_requires_recorder(self):
        system = System(SystemConfig(nodes=1, publishing=False))
        with pytest.raises(ReproError):
            system.crash_recorder()

    def test_first_node_id_offsets_everything(self):
        system = System(SystemConfig(nodes=2, first_node_id=50))
        assert sorted(system.nodes) == [50, 51]
        assert system.config.services_node == 50
        system.boot()
        assert system.process_state(
            __import__("repro").ProcessId(50, 1)) == "running"

    def test_services_node_falls_back_into_range(self):
        system = System(SystemConfig(nodes=2, first_node_id=10,
                                     services_node=1))
        assert system.config.services_node == 10

    def test_boot_without_system_processes(self):
        system = System(SystemConfig(nodes=1, boot_system_processes=False))
        system.boot()
        # Only the kernel process exists.
        assert list(system.nodes[1].kernel.processes) == [
            __import__("repro").kernel_pid(1)]

    def test_spawn_requires_booted_node(self):
        system = System(SystemConfig(nodes=1))
        register_test_programs(system)
        with pytest.raises(ReproError):
            system.spawn_program("test/counter", node=1)

    def test_crash_unknown_process_rejected(self):
        system = System(SystemConfig(nodes=1))
        system.boot()
        with pytest.raises(ReproError):
            system.crash_process(__import__("repro").ProcessId(1, 99))

    def test_checkpoint_all_counts(self):
        system = System(SystemConfig(nodes=2))
        register_test_programs(system)
        system.boot()
        count = system.checkpoint_all()
        # KP ×2 + NLS + PM + MS are all checkpointable actors.
        assert count == 5

    def test_program_of_unknown_returns_none(self):
        system = System(SystemConfig(nodes=1))
        system.boot()
        assert system.program_of(__import__("repro").ProcessId(1, 99)) is None

    def test_same_seed_same_boot_trace(self):
        def boot_fingerprint(seed):
            system = System(SystemConfig(nodes=2, master_seed=seed))
            register_test_programs(system)
            system.boot()
            return (system.engine.events_fired,
                    tuple(sorted(str(p) for p in system.recorder.db.records)))

        assert boot_fingerprint(7) == boot_fingerprint(7)


class TestCli:
    def test_example3_1(self, capsys):
        assert cli_main(["example3_1"]) == 0
        out = capsys.readouterr().out
        assert "140 ms" in out and "340 ms" in out

    def test_capacity(self, capsys):
        assert cli_main(["capacity"]) == 0
        out = capsys.readouterr().out
        assert "mean" in out and "114" in out

    def test_utilization(self, capsys):
        assert cli_main(["utilization", "--point", "mean"]) == 0
        out = capsys.readouterr().out
        assert "SATURATED" not in out.split("max_message_rate")[0]

    def test_demo_round_trips(self, capsys):
        assert cli_main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "crash-free run: True" in out

    #: medium -> (replies in at the crash, messages replayed), as the
    #: demo printed them at PR 18 with its own two inline programs; it
    #: now drives the chaos counter/driver pair and must say the same
    DEMO_FACTS = {"broadcast": (15, 17), "acking_ethernet": (15, 16),
                  "csma_ethernet": (15, 16), "star": (14, 15),
                  "token_ring": (16, 17)}

    @pytest.mark.parametrize("medium", sorted(DEMO_FACTS))
    def test_demo_output_is_pinned(self, medium, capsys):
        replies, replayed = self.DEMO_FACTS[medium]
        assert cli_main(["demo", "--medium", medium]) == 0
        assert capsys.readouterr().out == (
            f"[t=   1700 ms] workload running ({replies} replies in)\n"
            "[t=   1700 ms] server CRASHED\n"
            "[t=   3700 ms] workload complete\n"
            "replies exactly match the crash-free run: True\n"
            f"recoveries: 1, messages replayed: {replayed}\n")

    def test_demo_covers_every_medium(self):
        from repro.net import MEDIA
        assert sorted(self.DEMO_FACTS) == sorted(MEDIA)


class TestCheckpointPolicyConfig:
    def test_storage_policy_via_config(self):
        from conftest import run_counter_scenario
        system = System(SystemConfig(nodes=2, checkpoint_policy="storage"))
        register_test_programs(system)
        system.boot()
        counter_pid, _ = run_counter_scenario(system, n=60)
        system.run(20_000)
        assert system.obs.bus.count("checkpoint", str(counter_pid)) >= 1
        record = system.recorder.db.get(counter_pid)
        assert record.valid_message_bytes() <= 2 * 4 * 1024

    def test_unknown_policy_rejected(self):
        system = System(SystemConfig(nodes=1))
        with pytest.raises(ReproError):
            system.install_checkpoint_policy("optimal")

    def test_young_policy_via_config(self):
        from conftest import run_counter_scenario
        system = System(SystemConfig(nodes=2, checkpoint_policy="young",
                                     checkpoint_mtbf_ms=5_000.0))
        register_test_programs(system)
        system.boot()
        counter_pid, _ = run_counter_scenario(system, n=100)
        system.run(15_000)
        assert system.obs.bus.count("checkpoint", str(counter_pid)) >= 2
