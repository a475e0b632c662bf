"""Planet-scale federation: sharded recorder placement, gateway
partitions, and cross-cluster recovery (ISSUE 10).

Three contracts pinned here:

* **Placement determinism** — the same topology and policy always
  produce byte-identical shard maps, and a sharded federation's event
  stream hashes identically to the serial reference however the shards
  are placed (hypothesis over random topologies).
* **Partition tolerance** — a gateway or inter-cluster partition drops
  frames *in flight* but dead-letters nothing: custody frames ride the
  link-level retry budget across the outage, so a healed partition is
  invisible to the workload.
* **Cross-cluster recovery** — with a cluster's recorder shard down, a
  process recovers by replaying from a *remote* cluster's passively
  recorded log, routed through the gateways, and the replay digest is
  identical to the no-crash run (the ISSUE 10 acceptance scenario).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import System, SystemConfig
from repro.chaos import (
    GatewayPartition,
    InterclusterPartition,
    action_from_dict,
)
from repro.cluster import ClusterFederation
from repro.errors import ConfigError, PlacementError
from repro.parallel.des import DesScenario, run_pooled, run_serial
from repro.publishing.multi_recorder import process_state_digest
from repro.system import RECORDER_ID_OFFSET, place

from conftest import CounterProgram, DriverProgram


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def build_federation(sizes=(1, 1), configs=None, topology="mesh"):
    fed = ClusterFederation(list(sizes), configs=configs, topology=topology)
    for cluster in fed.clusters:
        cluster.registry.register("test/counter", CounterProgram)
        cluster.registry.register("test/driver", DriverProgram)
    fed.boot()
    return fed


def wait_replies(fed, cluster, driver_pid, n, max_ms=240_000):
    deadline = fed.now + max_ms
    while fed.now < deadline:
        driver = cluster.program_of(driver_pid)
        if driver is not None and len(driver.replies) >= n:
            return driver
        fed.run(1000)
    return cluster.program_of(driver_pid)


# ----------------------------------------------------------------------
# placement units
# ----------------------------------------------------------------------
def range_shards(shards, nodes, first_node_id=1, recorder_node_id=90):
    return place(SystemConfig(nodes=nodes, first_node_id=first_node_id,
                              recorder_node_id=recorder_node_id,
                              recorder_shards=shards))


class TestPlacementPolicies:
    def test_range_policy_splits_the_node_range_exactly(self):
        placement = range_shards(3, nodes=10)
        assert [(s.lo, s.hi) for s in placement.shards] == \
            [(1, 4), (4, 7), (7, 11)]
        assert [s.node_id for s in placement.shards] == [90, 91, 92]
        for node in range(1, 11):
            shard = placement.shard_for(node)
            assert shard.lo <= node < shard.hi
            assert placement.claim_of(shard.index)(node)

    def test_primary_shard_claims_foreign_nodes(self):
        """Cross-cluster traffic has no local owner; the primary claims
        it so remote recovery has a passive log to replay from."""
        placement = range_shards(2, nodes=4)
        assert placement.claim_of(0)(101)        # primary: yes
        assert not placement.claim_of(1)(101)    # sibling: no

    @pytest.mark.parametrize("config", [
        SystemConfig(placement_policy="hashring"),
        SystemConfig(recorder_shards=0),
        SystemConfig(nodes=0),
    ], ids=["unknown_policy", "no_shard", "no_node"])
    def test_an_incoherent_layout_is_rejected(self, config):
        with pytest.raises(PlacementError):
            place(config)

    @pytest.mark.parametrize("config", [
        SystemConfig(nodes=8, recorder_node_id=4, recorder_shards=2),
        # replica ids 4-7 around the whole node range 5-6
        SystemConfig(nodes=2, first_node_id=5, recorder_node_id=4,
                     recorder_shards=4, placement_policy="replica"),
    ], ids=["end_inside", "around"])
    def test_colliding_recorder_ids_are_rejected(self, config):
        with pytest.raises(PlacementError):
            place(config)
        with pytest.raises(PlacementError):
            System(config)

    @given(st.integers(1, 60), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_placement_is_byte_deterministic(self, nodes, shards):
        layout = lambda: range_shards(
            shards, nodes, first_node_id=201,
            recorder_node_id=201 + RECORDER_ID_OFFSET)
        first, second = layout(), layout()
        assert first == second
        # every node is claimed by exactly one shard
        for node in range(201, 201 + nodes):
            owners = [s.index for s in first.shards if s.lo <= node < s.hi]
            assert len(owners) == 1


# ----------------------------------------------------------------------
# sharded federations vs the serial reference
# ----------------------------------------------------------------------
class TestShardedFederationDigests:
    def test_sharded_run_matches_serial_reference(self):
        scenario = DesScenario(clusters=3, cluster_size=2,
                               recorder_shards=2, messages=3,
                               duration_ms=2000.0)
        serial = run_serial(scenario)
        pooled = run_pooled(scenario, workers=2)
        assert serial["workload_ok"] and pooled["workload_ok"]
        assert pooled["digest"] == serial["digest"]

    @given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 2),
           st.sampled_from(["ring", "mesh"]))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_topologies_are_digest_deterministic(
            self, clusters, cluster_size, shards, topology):
        scenario = DesScenario(clusters=clusters, cluster_size=cluster_size,
                               recorder_shards=shards, messages=2,
                               duration_ms=1500.0, topology=topology)
        first = run_serial(scenario)
        second = run_serial(scenario)
        assert first["workload_ok"]
        assert first["digest"] == second["digest"]
        assert first["per_cluster"] == second["per_cluster"]


def _assert_snapshot_sums_every_recorder(layout):
    """Every recorder and manager registers ``recorder.*`` /
    ``recovery.*`` gauges on the one shared registry; the snapshot must
    report the cluster's sum, not whichever registered last."""
    from repro.chaos import ChaosCampaign, CrashNode, run_scenario

    result = run_scenario(ChaosCampaign([CrashNode(2000.0, node=2)]),
                          SystemConfig(nodes=4, checkpoint_policy="storage",
                                       **layout))
    assert result.ok
    system = result.system
    completed = [m.stats.recoveries_completed for m in system.recoveries]
    assert sum(completed) > 0
    snapshot = system.metrics_snapshot()
    assert snapshot["recovery.recoveries_completed"] == sum(completed)
    logs = [recorder.db.log.log_bytes for recorder in system.recorders]
    assert all(logs)                  # no single recorder holds the sum
    assert snapshot["recorder.log_bytes"] == sum(logs)
    assert snapshot["recorder.disk_busy_ms"] == sum(
        recorder.disks.busy_ms for recorder in system.recorders)


def test_sharded_snapshot_sums_every_shard():
    _assert_snapshot_sums_every_recorder({"recorder_shards": 2})


def test_replicated_snapshot_sums_every_replica():
    _assert_snapshot_sums_every_recorder(
        {"recorder_shards": 3, "placement_policy": "replica"})


# ----------------------------------------------------------------------
# federations of media other than the bus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("medium", ["token_ring", "star"])
def test_ring_federation_round_trips_on_media_with_their_own_timing(medium):
    """A gateway tap is a claimer (``accept_extra``) and a forwarder
    hears a frame's fate through ``on_delivered``. The ring and the
    star each carried their own delivery code, which asked no claimer
    (and the star acknowledged a copy under another frame id): three
    clusters in a ring exchanged nothing, with no dead letter."""
    fed = build_federation((1, 1, 1), topology="ring", configs=[
        SystemConfig(nodes=1, medium=medium) for _ in range(3)])
    drivers = []
    for index, cluster in enumerate(fed.clusters):
        far = fed.clusters[(index + 1) % 3]
        counter = far.spawn_program("test/counter",
                                    node=far.config.first_node_id)
        drivers.append(cluster.spawn_program(
            "test/driver", args=(tuple(counter), 5),
            node=cluster.config.first_node_id))
    for cluster, driver_pid in zip(fed.clusters, drivers):
        driver = wait_replies(fed, cluster, driver_pid, 5)
        assert driver.replies == [sum(range(1, k + 1)) for k in range(1, 6)]
    assert all(g.tap.frames_claimed.value > 0 for g in fed.gateways)
    assert not fed.dead_letters
    assert not any(cluster.dead_letters for cluster in fed.clusters)


def test_a_medium_without_a_hardware_ack_cannot_be_federated():
    """On ``csma_ethernet`` the end-to-end ACK frames are not data, so
    no gateway carries them back: 0 replies and 14 retransmissions a
    node, for ever. Refused at construction instead."""
    with pytest.raises(ConfigError, match="csma_ethernet"):
        ClusterFederation([1, 1], configs=[
            SystemConfig(nodes=1, medium="csma_ethernet") for _ in range(2)])


# ----------------------------------------------------------------------
# gateway partitions (chaos satellite)
# ----------------------------------------------------------------------
class TestGatewayPartitions:
    def test_gateway_partition_drops_then_heals(self):
        fed = build_federation((1, 1))
        a, b = fed.clusters
        counter = b.spawn_program("test/counter", node=101)
        driver = a.spawn_program("test/driver",
                                 args=(tuple(counter), 20), node=1)
        fed.run(800)
        gid = fed.gateways[0].gateway_id
        action = GatewayPartition(at_ms=fed.now, gateway_id=gid,
                                  duration_ms=1500.0)
        assert action.apply(a)
        assert not action.apply(a)               # state race: already cut
        d = wait_replies(fed, a, driver, 20)
        assert d.replies == [sum(range(1, k + 1)) for k in range(1, 21)]
        assert fed.dead_letters == []            # retries rode it out
        drops = sum(sys.metrics_snapshot()["faults.partition_drops"]
                    for sys in fed.clusters)
        assert drops > 0

    def test_unknown_gateway_is_skipped(self):
        fed = build_federation((1, 1))
        assert not GatewayPartition(at_ms=0.0, gateway_id=424242).apply(
            fed.clusters[0])

    def test_intercluster_partition_cuts_both_directions(self):
        fed = build_federation((1, 1, 1), topology="mesh")
        edges = fed.gateway_edges()
        action = InterclusterPartition(at_ms=0.0, cluster_a=0, cluster_b=1)
        assert action.apply(fed.clusters[0])
        cut = [gid for gid, edge in edges.items() if set(edge) == {0, 1}]
        for gateway in fed.gateways:
            rules = gateway.far.faults._rules
            name = f"partition:gateway:{gateway.gateway_id}"
            if gateway.gateway_id in cut:
                assert any(r.name == name for r in rules)

    def test_actions_round_trip_json(self):
        for action in (GatewayPartition(at_ms=10.0, gateway_id=9000,
                                        duration_ms=500.0),
                       InterclusterPartition(at_ms=10.0, cluster_a=1,
                                             cluster_b=2)):
            assert action_from_dict(action.to_dict()) == action

    def test_partition_soak_with_recorder_crash(self):
        """The satellite-2 soak: an inter-cluster partition stands while
        the far cluster's recorder crashes and restarts — the workload
        still completes exactly, nothing is dead-lettered."""
        fed = build_federation((1, 1))
        a, b = fed.clusters
        counter = b.spawn_program("test/counter", node=101)
        driver = a.spawn_program("test/driver",
                                 args=(tuple(counter), 30), node=1)
        fed.run(800)
        assert InterclusterPartition(at_ms=fed.now, cluster_a=0,
                                     cluster_b=1,
                                     duration_ms=2000.0).apply(a)
        b.crash_recorder()
        fed.run(1000)                            # crash inside the cut
        b.restart_recorder()
        d = wait_replies(fed, a, driver, 30)
        assert d.replies == [sum(range(1, k + 1)) for k in range(1, 31)]
        assert fed.dead_letters == []
        assert b.metrics_snapshot()["faults.partition_drops"] > 0


# ----------------------------------------------------------------------
# cross-cluster recovery (the ISSUE 10 acceptance scenario)
# ----------------------------------------------------------------------
class TestCrossClusterRecovery:
    N = 15

    def _build(self):
        configs = [SystemConfig(nodes=1),
                   SystemConfig(nodes=2, recorder_shards=2)]
        fed = build_federation((1, 2), configs=configs)
        a, b = fed.clusters
        counter = b.spawn_program("test/counter", node=101)
        driver = a.spawn_program("test/driver",
                                 args=(tuple(counter), self.N), node=1)
        return fed, a, b, counter, driver

    def test_recovery_replays_from_a_remote_recorder(self):
        # Reference arm: no crash.
        fed, a, b, counter, driver = self._build()
        assert len(wait_replies(fed, a, driver, self.N).replies) == self.N
        shard = b.placement.shard_for(101)
        ref_digest = process_state_digest(
            b.recorders[shard.index].db.get(counter).arrivals)
        ref_state = b.program_of(counter).total

        # Crash arm: the shard owning the counter's range goes down
        # with the counter's node; recovery replays from cluster A's
        # passively recorded log, through the gateways.
        fed, a, b, counter, driver = self._build()
        wait_replies(fed, a, driver, self.N)
        shard = b.placement.shard_for(101)
        b.crash_recorder(shard=shard.index)
        b.crash_node(101)
        fed.run(200)
        started = fed.remote_recover(101)
        assert started >= 1
        deadline = fed.now + 240_000
        while fed.now < deadline:
            program = b.program_of(counter)
            if program is not None and program.total == ref_state:
                break
            fed.run(1000)
        program = b.program_of(counter)
        assert program is not None and program.total == ref_state
        # The replay digest is identical to the no-crash run: the
        # helper's passive log rebuilds byte-for-byte the same state.
        helper_digest = process_state_digest(
            a.recorder.db.get(counter).arrivals)
        assert helper_digest == ref_digest
        assert a.metrics_snapshot()[
            "recorder.placement.remote_recoveries"] >= 1

    def test_remote_recover_requires_a_live_helper(self):
        fed, a, b, counter, driver = self._build()
        wait_replies(fed, a, driver, self.N)
        a.crash_recorder()                       # the only neighbour
        b.crash_node(101)
        from repro.errors import NetworkError
        with pytest.raises(NetworkError):
            fed.remote_recover(101)
