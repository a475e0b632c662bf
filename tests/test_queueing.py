"""Tests for the Chapter 5 queuing evaluation: model, solver, DES
cross-check, and the headline claims."""

import pytest

from repro import costs
from repro.queueing import (
    OPERATING_POINTS,
    OpenQueueingModel,
    StateSizeDistribution,
    capacity_in_nodes,
    capacity_in_users,
    checkpoint_traffic,
    simulate_model,
    solve_model,
    solve_station,
)
from repro.queueing.capacity import (
    bottleneck,
    checkpoint_interval_extremes,
    selective_publishing_gain,
    storage_requirement_bytes,
)
from repro.queueing.model import StationLoad, disk_ms_per_byte_buffered, wire_ms
from repro.queueing.solver import recorder_buffer_bytes
from repro.errors import QueueingModelError
from repro.sim.rng import RngStreams


class TestHardware:
    def test_figure_5_2_values(self):
        assert costs.INTERPACKET_DELAY_MS == 1.6
        assert costs.BANDWIDTH_BPS == 10_000_000
        assert costs.DISK_LATENCY_MS == 3.0
        assert costs.DISK_TRANSFER_BYTES_PER_MS == 2000.0
        assert costs.PACKET_CPU_MS == 0.8

    def test_wire_time_scales_with_size(self):
        assert wire_ms(1024) > wire_ms(128)
        # 10 Mb/s: 128 bytes + the 32-byte header = 0.128 ms of bits.
        assert wire_ms(128) == pytest.approx(0.128 + costs.CHANNEL_GAP_MS)

    def test_disk_op_time(self):
        assert costs.disk_op_ms(2000) == pytest.approx(3.0 + 1.0)

    def test_buffered_rate_beats_per_message(self):
        per_message = costs.disk_op_ms(128) / 128       # ms per byte
        assert disk_ms_per_byte_buffered() < per_message


class TestStateSizes:
    def test_distribution_normalized_and_in_range(self):
        dist = StateSizeDistribution()
        assert 4 <= dist.mean_kb() <= 64
        sizes = dist.sample_many(500, RngStreams(7))
        assert all(4 <= s <= 64 for s in sizes)

    def test_skewed_small(self):
        dist = StateSizeDistribution()
        pmf = dict(dist.TABLE)
        assert pmf[4] == max(pmf.values())


class TestModel:
    def test_utilization_linear_in_nodes(self):
        point = OPERATING_POINTS["mean"]
        one = OpenQueueingModel(point=point, nodes=1).utilizations()
        three = OpenQueueingModel(point=point, nodes=3).utilizations()
        for name in one:
            assert three[name] == pytest.approx(3 * one[name])

    def test_more_disks_lower_disk_utilization(self):
        point = OPERATING_POINTS["max_message_rate"]
        one = OpenQueueingModel(point=point, nodes=3, disks=1).utilizations()
        three = OpenQueueingModel(point=point, nodes=3, disks=3).utilizations()
        assert three["disk"] == pytest.approx(one["disk"] / 3)

    def test_unbuffered_disk_much_worse(self):
        point = OPERATING_POINTS["mean"]
        buffered = OpenQueueingModel(point=point, nodes=2,
                                     buffered_writes=True).utilizations()
        raw = OpenQueueingModel(point=point, nodes=2,
                                buffered_writes=False).utilizations()
        assert raw["disk"] > 3 * buffered["disk"]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(QueueingModelError):
            OpenQueueingModel(point=OPERATING_POINTS["mean"], nodes=0)

    def test_checkpoint_traffic_follows_policy(self):
        point = OPERATING_POINTS["mean"]
        pkt_rate, byte_rate = checkpoint_traffic(point)
        assert byte_rate == pytest.approx(point.message_bytes_per_user())
        assert pkt_rate == pytest.approx(byte_rate / 1024.0)


class TestSolver:
    def test_mm1_textbook_case(self):
        # λ = 50/s, E[S] = 10 ms → ρ = 0.5, L = 1, W = 20 ms.
        load = StationLoad("x", arrival_rate_per_s=50.0, mean_service_ms=10.0)
        sol = solve_station(load)
        assert sol.utilization == pytest.approx(0.5)
        assert sol.mean_queue_length == pytest.approx(1.0)
        assert sol.mean_wait_ms == pytest.approx(20.0)

    def test_mmc_beats_mm1_at_same_total_capacity(self):
        single = solve_station(StationLoad("a", 100.0, 8.0, servers=1))
        dual = solve_station(StationLoad("b", 100.0, 16.0, servers=2))
        assert single.utilization == pytest.approx(dual.utilization)
        assert dual.mean_wait_ms > 0

    def test_saturated_station_flagged(self):
        sol = solve_station(StationLoad("x", 200.0, 10.0))
        assert sol.saturated
        assert sol.mean_queue_length == float("inf")

    def test_buffer_estimate_raises_when_saturated(self):
        point = OPERATING_POINTS["max_message_rate"]
        model = OpenQueueingModel(point=point, nodes=8)
        with pytest.raises(QueueingModelError):
            recorder_buffer_bytes(model)

    def test_buffer_modest_at_mean_five_nodes(self):
        """§5.1: "at most 28k bytes" of buffer space."""
        model = OpenQueueingModel(point=OPERATING_POINTS["mean"], nodes=5)
        assert recorder_buffer_bytes(model) < 28 * 1024


class TestSimulationAgreement:
    def test_sim_matches_analytic_utilizations(self):
        model = OpenQueueingModel(point=OPERATING_POINTS["mean"], nodes=3)
        analytic = model.utilizations()
        sim = simulate_model(model, duration_ms=40_000)
        for name in ("network", "cpu", "disk"):
            assert sim.utilizations[name] == pytest.approx(
                analytic[name], rel=0.1)

    def test_sim_buffer_under_28k_at_mean_five_nodes(self):
        model = OpenQueueingModel(point=OPERATING_POINTS["mean"], nodes=5)
        sim = simulate_model(model, duration_ms=60_000)
        assert sim.max_buffer_bytes < 28 * 1024


class TestHeadlineClaims:
    def test_115_users(self):
        """Claim: the recorder can support up to 115 users."""
        users = capacity_in_users(OPERATING_POINTS["mean"])
        assert 110 <= users <= 120

    def test_cpu_is_the_binding_resource_at_mean(self):
        point = OPERATING_POINTS["mean"]
        users = capacity_in_users(point)
        assert bottleneck(point, users) == "cpu"

    def test_viable_for_at_least_five_nodes_at_mean(self):
        assert capacity_in_nodes(OPERATING_POINTS["mean"]) >= 5.0

    def test_max_message_rate_saturates_past_three_nodes(self):
        """Claim: all three subsystems saturate past ~3 nodes."""
        nodes = capacity_in_nodes(OPERATING_POINTS["max_message_rate"])
        assert 3.0 <= nodes <= 4.5

    def test_unbuffered_disk_saturates_then_buffering_fixes_it(self):
        point = OPERATING_POINTS["max_message_rate"]
        raw = OpenQueueingModel(point=point, nodes=2,
                                buffered_writes=False).utilizations()
        assert raw["disk"] >= 1.0
        fixed = OpenQueueingModel(point=point, nodes=2,
                                  buffered_writes=True).utilizations()
        assert fixed["disk"] < 1.0

    def test_storage_near_2_76_mb(self):
        worst = max(storage_requirement_bytes(p, nodes=5)
                    for p in OPERATING_POINTS.values())
        assert worst == pytest.approx(2.76e6, rel=0.05)

    def test_checkpoint_interval_extremes(self):
        """§5.1: "between 1 second ... and 2 minutes"."""
        shortest, longest = checkpoint_interval_extremes()
        assert shortest == pytest.approx(1.0, rel=0.1)
        assert 100.0 <= longest <= 140.0

    def test_selective_publishing_gains_capacity(self):
        """§6.6.1: skipping the backups buys extra capacity."""
        gain = selective_publishing_gain(OPERATING_POINTS["max_message_rate"])
        assert gain["selective_users"] > gain["baseline_users"]


class TestCapacityProbeReuse:
    """capacity_in_users now sweeps user counts through one reused
    model (``stable(users=...)``) instead of rebuilding a model per
    probe; the arithmetic must match the rebuild-per-probe original
    exactly, for every operating point and disk count."""

    @pytest.mark.parametrize("name", sorted(OPERATING_POINTS))
    @pytest.mark.parametrize("disks", [1, 2])
    def test_matches_rebuild_per_probe(self, name, disks):
        from dataclasses import replace

        point = OPERATING_POINTS[name]
        def rebuild_stable(users):
            adjusted = replace(point, users_per_node=users)
            return OpenQueueingModel(point=adjusted, nodes=1,
                                     disks=disks).stable()

        def rebuild_capacity(limit=2000):
            lo, hi = 0, 1
            while hi < limit and rebuild_stable(hi):
                lo, hi = hi, hi * 2
            while lo + 1 < hi:
                mid = (lo + hi) // 2
                if rebuild_stable(mid):
                    lo = mid
                else:
                    hi = mid
            return lo

        assert capacity_in_users(point, disks=disks) == rebuild_capacity()

    def test_users_override_equals_adjusted_model(self):
        from dataclasses import replace

        point = OPERATING_POINTS["mean"]
        model = OpenQueueingModel(point=point, nodes=1)
        for users in (1, 17, 114, 115, 400):
            adjusted = OpenQueueingModel(
                point=replace(point, users_per_node=users), nodes=1)
            assert model.utilizations(users=users) == adjusted.utilizations()
            assert model.stable(users=users) == adjusted.stable()
