"""Checkpoint policies (§3.2.3/§3.2.4/§5.1) and the recovery-time model."""

import math

import pytest

from repro import System, SystemConfig, costs
from repro.publishing.checkpoints import (
    RecoveryTimeBoundPolicy,
    StorageBalancePolicy,
    YoungIntervalPolicy,
    install_policy,
    young_interval,
)
from repro.publishing.recovery_time import (
    RecoveryTimeModel,
    figure_3_1_example,
)

from conftest import register_test_programs, run_counter_scenario


class TestRecoveryTimeModel:
    def test_figure_3_1_worked_example(self):
        """The thesis's numbers: 140 ms after the checkpoint, 340 ms
        after 100 ms of computation."""
        example = figure_3_1_example()
        assert example["after_checkpoint_ms"] == pytest.approx(140.0)
        assert example["after_compute_ms"] == pytest.approx(340.0)
        # after one message: + t_mfix (2 ms) + t_byte * length
        assert example["after_message_ms"] == pytest.approx(
            340.0 + 2.0 + 0.01 * example["message_bytes"])

    def test_components_additive(self):
        model = RecoveryTimeModel()
        total = model.t_max_ms(4, 10, 2000, 500.0)
        assert total == pytest.approx(
            model.t_reload_ms(4) + model.t_replay_ms(10, 2000)
            + model.t_compute_ms(500.0))

    def test_f_cpu_scales_compute(self, monkeypatch):
        model = RecoveryTimeModel()
        assert model.t_compute_ms(100.0) == 200.0      # Figure 3.1's 0.5
        monkeypatch.setattr(costs, "F_CPU", 1.0)
        assert model.t_compute_ms(100.0) == 100.0

    def test_f_cpu_is_a_fraction(self):
        assert 0 < costs.F_CPU <= 1

    def test_message_length_form_matches(self):
        model = RecoveryTimeModel()
        lengths = [100, 200, 300]
        assert model.t_max_for_messages(4, lengths, 50.0) == pytest.approx(
            model.t_max_ms(4, 3, 600, 50.0))


class TestYoungInterval:
    def test_formula(self):
        assert young_interval(50.0, 3_600_000.0) == pytest.approx(
            math.sqrt(2 * 50.0 * 3_600_000.0))

    def test_monotone_in_both_arguments(self):
        assert young_interval(100, 1000) > young_interval(50, 1000)
        assert young_interval(50, 2000) > young_interval(50, 1000)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            young_interval(0, 100)
        with pytest.raises(ValueError):
            young_interval(100, -1)

    def test_young_interval_minimizes_expected_cost(self):
        """Verify Young's claim numerically: expected cost per unit time
        T_s/T + T/(2·T_f) is minimized near sqrt(2·T_s·T_f)."""
        save, mtbf = 40.0, 100_000.0
        optimum = young_interval(save, mtbf)

        def cost(interval):
            return save / interval + interval / (2 * mtbf)

        for other in (optimum * 0.5, optimum * 0.8, optimum * 1.25,
                      optimum * 2.0):
            assert cost(optimum) <= cost(other)


class TestPoliciesInSystem:
    def make_system(self, policy):
        system = System(SystemConfig(nodes=2))
        register_test_programs(system)
        system.boot()
        for node in system.nodes.values():
            install_policy(node, policy)
        return system

    def test_young_policy_checkpoints_periodically(self):
        # T_s·T_f as with 1 ms/page and a 10 s MTBF: t_page is 10 ms/page
        system = self.make_system(YoungIntervalPolicy(mtbf_ms=1_000.0))
        counter_pid, _ = run_counter_scenario(system, n=50)
        system.run(10_000)
        assert system.obs.bus.count("checkpoint", str(counter_pid)) >= 2

    def test_storage_balance_policy_limits_stored_bytes(self):
        system = self.make_system(StorageBalancePolicy())
        counter_pid, _ = run_counter_scenario(system, n=60)
        system.run(60_000)
        record = system.recorder.db.get(counter_pid)
        # published bytes between checkpoints stay near the state size
        ckpt_bytes = record.state_pages * 1024
        assert record.valid_message_bytes() <= 3 * ckpt_bytes

    def test_recovery_bound_policy_keeps_t_max_under_bound(self):
        policy = RecoveryTimeBoundPolicy(default_bound_ms=400.0)
        system = self.make_system(policy)
        counter_pid, _ = run_counter_scenario(system, n=60)
        system.run(20_000)
        pcb = system.nodes[2].processes[counter_pid]
        # Right after any delivery the policy may briefly exceed, but
        # having just checkpointed it must sit at/below the bound plus
        # one message's worth of slack.
        estimate = policy.estimate_t_max(pcb)
        slack = costs.T_MFIX_MS + 0.01 * 1024 + 10
        assert estimate <= 400.0 + slack

    def test_policy_respects_only_filter(self):
        policy = YoungIntervalPolicy(mtbf_ms=1.0)
        system = System(SystemConfig(nodes=1))
        register_test_programs(system)
        system.boot()
        install_policy(system.nodes[1], policy,
                       only=lambda pcb: False)
        counter_pid, _ = run_counter_scenario(system, n=20,
                                              counter_node=1, driver_node=1)
        before = system.obs.bus.count("checkpoint")
        system.run(10_000)
        assert system.obs.bus.count("checkpoint") == before

    def test_bound_can_be_set_per_process(self):
        policy = RecoveryTimeBoundPolicy(default_bound_ms=1e12)
        system = self.make_system(policy)
        counter_pid, _ = run_counter_scenario(system, n=40)
        policy.set_bound(counter_pid, 200.0)
        system.run(20_000)
        assert system.obs.bus.count("checkpoint", str(counter_pid)) >= 1
