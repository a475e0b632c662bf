"""Planet-scale federation: sharded recorder placement across
federated clusters.

Two contracts pinned here:

* **Placement determinism** — the same topology and policy always
  produce byte-identical shard maps, and a sharded federation's event
  stream hashes identically to the serial reference however the shards
  are placed (hypothesis over random topologies).
* **Partition tolerance at a gateway** — a partition on the far medium
  that cuts a forwarder off drops custody frames *in flight* but
  dead-letters nothing while it is shorter than the forwarder's retry
  budget: the frames ride the budget across the outage, so a healed
  partition is invisible to the workload. One that outlasts the budget
  ends in exactly one counted dead letter per frame, never silence.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import System, SystemConfig
from repro.chaos import Partition
from repro.cluster import ClusterFederation
from repro.cluster.gateways import GATEWAY_MAX_RETRIES, GATEWAY_RETRY_MS
from repro.errors import ConfigError, PlacementError
from repro.parallel.des import DesScenario, run_pooled, run_serial
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
    deadline = fed.engine.now + max_ms
    while fed.engine.now < deadline:
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
        system = System(SystemConfig(nodes=10, recorder_node_id=90,
                                     recorder_shards=3))
        for node in range(1, 11):
            shard = placement.shard_for(node)
            assert shard.lo <= node < shard.hi
            assert [node in r.claim for r in system.recorders] == [
                s is shard for s in placement.shards]

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
# every recorder keeps its own shard's records (§6.2: each cluster
# recovers its own processes)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layout", [
    {},
    {"recorder_shards": 2},
    {"recorder_shards": 2, "placement_policy": "replica"},
], ids=["lone", "range", "replica"])
def test_no_recorder_records_a_pid_outside_its_shard(layout):
    """Three clusters of two nodes in a ring, each cluster's driver on
    its second node calling the next cluster's counter: every recorder
    claims its shard's node range and holds no record for a pid outside
    it, and each driver's record in its own cluster has every send
    confirmed — the gateway's hardware ack confirms a cross-cluster
    send on a recorder that does not log it."""
    fed = build_federation((2, 2, 2), topology="ring", configs=[
        SystemConfig(nodes=2, **layout) for _ in range(3)])
    drivers = []
    for index, cluster in enumerate(fed.clusters):
        far = fed.clusters[(index + 1) % 3]
        counter = far.spawn_program("test/counter",
                                    node=far.config.first_node_id)
        drivers.append(cluster.spawn_program(
            "test/driver", args=(tuple(counter), 5),
            node=cluster.config.first_node_id + 1))
    for cluster, driver_pid in zip(fed.clusters, drivers):
        driver = wait_replies(fed, cluster, driver_pid, 5)
        assert driver.replies == [sum(range(1, k + 1)) for k in range(1, 6)]
    for cluster, driver_pid in zip(fed.clusters, drivers):
        assert [recorder.claim for recorder in cluster.recorders] == [
            range(shard.lo, shard.hi) for shard in cluster.placement.shards]
        for recorder in cluster.recorders:
            assert recorder.db.records
            assert all(pid.node in recorder.claim
                       for pid in recorder.db.records)
        owners = [r for r in cluster.recorders if driver_pid.node in r.claim]
        assert owners and all(
            r.db.get(driver_pid).confirmed_prefix == 5 for r in owners)


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
# partitions at a gateway: custody rides the retry budget
# ----------------------------------------------------------------------
class TestGatewayPartitions:
    @staticmethod
    def federation():
        """Two one-node clusters, a counter on B's node 101, and the
        forwarder that carries A's requests onto B's medium."""
        fed = build_federation((1, 1))
        a, b = fed.clusters
        counter = b.spawn_program("test/counter", node=101)
        forwarder = next(g.forwarder for g in fed.gateways
                         if g.forwarder.far is b.medium)
        return fed, a, b, counter, forwarder

    @staticmethod
    def cut(b, forwarder, duration_ms=None):
        """Partition B's medium between the forwarder and node 101."""
        return Partition(at_ms=b.engine.now,
                         groups=((forwarder.far_iface.node_id,), (101,)),
                         duration_ms=duration_ms).apply(b)

    def test_gateway_partition_drops_then_heals(self):
        fed, a, b, counter, forwarder = self.federation()
        driver = a.spawn_program("test/driver",
                                 args=(tuple(counter), 20), node=1)
        fed.run(800)
        assert self.cut(b, forwarder, duration_ms=1500.0)
        d = wait_replies(fed, a, driver, 20)
        assert d.replies == [sum(range(1, k + 1)) for k in range(1, 21)]
        assert fed.dead_letters == []            # retries rode it out
        drops = b.metrics_snapshot()["faults.partition_drops"]
        assert drops > 0
        assert forwarder.retries.value == drops  # one re-offer a refusal
        assert b._partitions == []               # healed on schedule

    def test_partition_soak_with_recorder_crash(self):
        """The far cluster's recorder crashes and restarts while the
        cut stands: the workload still completes exactly and nothing
        is dead-lettered."""
        fed, a, b, counter, forwarder = self.federation()
        driver = a.spawn_program("test/driver",
                                 args=(tuple(counter), 30), node=1)
        fed.run(800)
        assert self.cut(b, forwarder, duration_ms=2000.0)
        b.crash_recorder()
        fed.run(1000)                            # crash inside the cut
        b.restart_recorder()
        d = wait_replies(fed, a, driver, 30)
        assert d.replies == [sum(range(1, k + 1)) for k in range(1, 31)]
        assert fed.dead_letters == []
        assert b.metrics_snapshot()["faults.partition_drops"] > 0

    def test_a_partition_outlasting_the_retry_budget_dead_letters(self):
        """A standing cut exhausts the forwarder's budget: the custody
        frame it held is one dead letter after ``GATEWAY_MAX_RETRIES``
        attempts, and the driver stalls where it lost it. Healed, the
        gateway carries a fresh driver's traffic again."""
        fed, a, b, counter, forwarder = self.federation()
        assert self.cut(b, forwarder)
        driver = a.spawn_program("test/driver",
                                 args=(tuple(counter), 3), node=1)
        fed.run(2 * GATEWAY_MAX_RETRIES * GATEWAY_RETRY_MS)
        assert a.program_of(driver).replies == []
        letter, = fed.dead_letters
        assert letter.origin == forwarder.gateway_id
        assert letter.attempts == GATEWAY_MAX_RETRIES
        assert forwarder.frames_dropped.value == 1
        assert forwarder.retries.value == GATEWAY_MAX_RETRIES
        rule, = b._partitions
        b.heal(rule)
        second = a.spawn_program("test/driver",
                                 args=(tuple(counter), 3), node=1)
        assert wait_replies(fed, a, second, 3).replies == [1, 3, 6]
