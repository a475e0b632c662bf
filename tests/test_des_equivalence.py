"""Partitioned DES must replay the serial engine byte-for-byte.

The whole value of the conservative partitioning (gateway lookahead
windows, barrier exchange — docs/PARALLEL_DES.md) is that it is *not*
an approximation: every cluster's full event stream and metrics
snapshot must hash identically whether the federation ran on one
engine or on a process pool with one engine per worker.
"""

import multiprocessing
import time
from dataclasses import replace

import pytest

import repro.parallel.des as des
from repro.cluster.gateways import GATEWAY_FORWARD_DELAY_MS, ClusterFederation
from repro.errors import NetworkError, ReproError, SimulationError
from repro.parallel.des import (
    DES_VOLATILE_METRICS,
    POOL_JOIN_TIMEOUT_S,
    DesScenario,
    _pool_recv,
    build_federation,
    equivalence_report,
    run_pooled,
    run_serial,
    spawn_workload,
)
from repro.parallel.runner import _mp_context
from repro.sim.engine import PartitionChannel

SMALL = DesScenario(clusters=4, messages=4, duration_ms=1500.0)


class TestStagedEquivalence:
    """Partition-count and topology cells, on the pool. (The class and
    test names predate the removal of the in-process staged runner;
    they are kept so the test ids stay stable.)"""

    def test_staged_matches_serial_small(self):
        serial = run_serial(SMALL)
        pooled = run_pooled(SMALL, workers=2)
        assert serial["workload_ok"]
        assert pooled["workload_ok"]
        assert pooled["per_cluster"] == serial["per_cluster"]
        assert pooled["digest"] == serial["digest"]
        # 2 LPs over a 4-ring: the two cross-LP drivers' request+reply
        # traffic crosses the partition cut.
        assert pooled["messages_exchanged"] > 0
        assert pooled["barriers"] > 0

    def test_single_partition_degenerates_to_serial(self):
        serial = run_serial(SMALL)
        pooled = run_pooled(SMALL, workers=1)
        assert pooled["digest"] == serial["digest"]
        assert pooled["messages_exchanged"] == 0   # no cross-LP edges

    def test_one_lp_per_cluster(self):
        serial = run_serial(SMALL)
        pooled = run_pooled(SMALL, workers=SMALL.clusters)
        assert pooled["partitions"] == SMALL.clusters
        assert pooled["digest"] == serial["digest"]
        assert pooled["workload_ok"]

    def test_mesh_topology_also_equivalent(self):
        scenario = DesScenario(clusters=3, messages=3, duration_ms=1200.0,
                               topology="mesh")
        serial = run_serial(scenario)
        pooled = run_pooled(scenario, workers=3)
        assert serial["workload_ok"]
        assert pooled["digest"] == serial["digest"]


class TestPooledEquivalence:
    def test_pooled_matches_serial(self):
        serial = run_serial(SMALL)
        pooled = run_pooled(SMALL, workers=2)
        assert pooled["workload_ok"]
        assert pooled["per_cluster"] == serial["per_cluster"]
        assert pooled["digest"] == serial["digest"]
        assert pooled["messages_exchanged"] > 0

    def test_pooled_single_worker_matches_serial(self):
        serial = run_serial(SMALL)
        pooled = run_pooled(SMALL, workers=1)
        assert pooled["digest"] == serial["digest"]


class TestChannelLookahead:
    """A gateway edge's delay is its channel's lookahead."""

    @pytest.mark.parametrize("lookahead_ms", [0.0, -1.0, float("nan")])
    def test_channel_lookahead_must_be_positive(self, lookahead_ms):
        # A zero-lookahead edge would let no LP ever outrun another.
        with pytest.raises(SimulationError, match="positive lookahead"):
            PartitionChannel("gw0", 0, 1, lookahead_ms=lookahead_ms)


class TestPromiseFastForward:
    """Next-event promises must fast-forward idle stretches: barrier
    count tracks the *traffic*, not the window grid. The workload dies
    out well before ``duration_ms``; stepping fixed min-lookahead
    windows would still pay one barrier per window across the whole
    run."""

    def test_pooled_barriers_track_traffic_not_windows(self):
        pooled = run_pooled(SMALL, workers=2)
        windows = ((des.SETTLE_MS + SMALL.duration_ms)
                   / GATEWAY_FORWARD_DELAY_MS)
        assert pooled["digest"] == run_serial(SMALL)["digest"]
        assert pooled["barriers"] < windows / 4, (
            f"{pooled['barriers']} barriers for {windows:.0f} min-lookahead "
            f"windows — idle fast-forward is not engaging")

    def test_zero_traffic_completes_in_constant_barriers(self):
        # Drivers that send nothing: no frame ever crosses a gateway
        # (only each cluster's own housekeeping timers fire). The
        # promise loop must cross settle + horizon in a small constant
        # number of barriers — not one per lookahead window (400 for
        # this scenario).
        pooled = run_pooled(replace(SMALL, messages=0), workers=4)
        assert pooled["workload_ok"]
        assert pooled["messages_exchanged"] == 0
        assert pooled["barriers"] <= 16, (
            f"{pooled['barriers']} barriers to cross an idle horizon")


def _silent_death_worker(conn):
    conn.close()


def _spawn_workload_failing_on_shard_1(fed, scenario):
    if fed.only_partition == 1:
        raise RuntimeError("injected spawn failure")
    spawn_workload(fed, scenario)


class TestPoolRobustness:
    """A dead or crashing child must surface as :class:`ReproError`,
    never as a parent blocked forever on ``pipe.recv()``."""

    def test_dead_child_raises_instead_of_blocking(self):
        ctx = _mp_context()
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(target=_silent_death_worker,
                              args=(child_conn,))
        process.start()
        child_conn.close()
        try:
            with pytest.raises(ReproError, match="worker 3"):
                _pool_recv(parent_conn, process, 3, timeout_s=30.0)
        finally:
            process.join(timeout=30)
            parent_conn.close()

    def test_child_traceback_is_surfaced(self):
        from repro.parallel.des import _pool_worker
        ctx = _mp_context()
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_pool_worker,
            args=(child_conn, SMALL, 2, 0), daemon=True)
        process.start()
        child_conn.close()
        try:
            # A corrupt wire blob makes the worker raise mid-command;
            # the parent must get the child's actual traceback.
            parent_conn.send(("advance", 10.0, b"not a frame batch"))
            with pytest.raises(ReproError,
                               match="(?s)worker 0 failed.*magic"):
                _pool_recv(parent_conn, process, 0)
        finally:
            process.join(timeout=30)
            if process.is_alive():
                process.terminate()
            parent_conn.close()


    def test_failing_worker_surfaces_without_waiting_out_survivors(
            self, monkeypatch):
        # Shard 1 raises while shards 0 and 2 sit in conn.recv(); the
        # parent must stop them rather than join each for a full
        # timeout before the error gets out. Under fork the children
        # inherit the patched module.
        monkeypatch.setattr(des, "_mp_context",
                            lambda: multiprocessing.get_context("fork"))
        monkeypatch.setattr(des, "spawn_workload",
                            _spawn_workload_failing_on_shard_1)
        started = time.monotonic()
        with pytest.raises(
                ReproError,
                match="(?s)worker 1 failed.*injected spawn failure"):
            run_pooled(SMALL, workers=3)
        elapsed = time.monotonic() - started
        assert multiprocessing.active_children() == []
        assert elapsed < POOL_JOIN_TIMEOUT_S, (
            f"the worker failure took {elapsed:.1f}s to surface")


class TestLargeFederation:
    """The acceptance-criteria configuration: 32 clusters."""

    SCENARIO = DesScenario(clusters=32, messages=6, duration_ms=3000.0)

    def test_32_clusters_serial_vs_staged_vs_pooled(self):
        report = equivalence_report(self.SCENARIO, worker_counts=(1, 4))
        assert report["equivalent"], report["mismatches"]
        modes = {(run["mode"], run["partitions"]) for run in report["runs"]}
        assert modes == {("serial", 0), ("pooled", 1), ("pooled", 4)}
        for run in report["runs"]:
            assert run["workload_ok"]
            assert run["replies"] == [6] * 32
            assert run["frames_dropped"] == 0


class TestDigestScope:
    def test_digest_covers_metrics(self):
        # Two scenarios differing only in traffic must not collide.
        a = run_serial(SMALL)
        b = run_serial(DesScenario(clusters=4, messages=5,
                                   duration_ms=1500.0))
        assert a["digest"] != b["digest"]

    def test_volatile_metrics_documented(self):
        # The only excluded metric is the engine-global event counter,
        # which legitimately differs between 1-engine and N-engine runs.
        assert DES_VOLATILE_METRICS == {"sim.events_fired"}


class TestSliceConstruction:
    def test_slice_owns_only_its_partition(self):
        full = build_federation(SMALL)
        slice0 = build_federation(SMALL, partitions=2, only_partition=0)
        slice1 = build_federation(SMALL, partitions=2, only_partition=1)
        assert set(slice0.systems) | set(slice1.systems) == set(full.systems)
        assert not set(slice0.systems) & set(slice1.systems)

    def test_slice_refuses_to_run_itself(self):
        fed = build_federation(SMALL, partitions=2, only_partition=0)
        with pytest.raises(NetworkError):
            fed.run(100.0)

    def test_spawn_is_deterministic_across_slices(self):
        # Both slices must compute identical pids for remote counters;
        # spawn_workload raises if counter local ids ever diverge.
        for shard in (0, 1):
            fed = build_federation(SMALL, partitions=2,
                                   only_partition=shard)
            for system in fed.clusters:
                system.boot(settle_ms=0.0)
            fed.engine.run(until=des.SETTLE_MS)
            spawn_workload(fed, SMALL)

    def test_partitions_without_a_slice_has_no_runner(self):
        with pytest.raises(NetworkError, match="only_partition"):
            ClusterFederation([1, 1], partitions=2)
