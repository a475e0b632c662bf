"""Cluster federations over store-and-forward gateways (§6.2)."""

import pytest

from repro import Program
from repro.cluster import ClusterFederation, gateways
from repro.errors import NetworkError

from conftest import CounterProgram, DriverProgram


def build_federation(sizes=(1, 1)):
    fed = ClusterFederation(list(sizes))
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


def gateway_give_up_federation(monkeypatch):
    """A two-cluster federation whose a→b forwarder gives up on the
    driver's first request: B's recorder misses the gateway's first
    three transmissions, each one refused by B's medium, and the
    forwarders stop after three for the rest of the test."""
    attempts = 3
    monkeypatch.setattr(gateways, "GATEWAY_MAX_RETRIES", attempts)
    fed = build_federation((2, 1))
    a, b = fed.clusters
    counter_pid = b.spawn_program("test/counter", node=101)
    b.medium.faults.corrupt_next(
        lambda f, node: node == b.config.recorder_node_id
        and f.kind.value == "data" and f.src_node >= 9000, count=attempts)
    driver_pid = a.spawn_program("test/driver",
                                 args=(tuple(counter_pid), 3), node=1)
    fed.run(5000)
    return fed, a, b, driver_pid, counter_pid


class TestFederation:
    def test_disjoint_node_ranges(self):
        fed = build_federation((2, 2))
        a, b = fed.clusters
        assert set(a.nodes) == {1, 2}
        assert set(b.nodes) == {101, 102}

    def test_cross_cluster_request_reply(self):
        fed = build_federation()
        a, b = fed.clusters
        counter_pid = b.spawn_program("test/counter", node=101)
        driver_pid = a.spawn_program("test/driver",
                                     args=(tuple(counter_pid), 10), node=1)
        driver = wait_replies(fed, a, driver_pid, 10)
        assert driver.replies == [sum(range(1, k + 1)) for k in range(1, 11)]

    def test_each_recorder_records_only_its_processes(self):
        fed = build_federation()
        a, b = fed.clusters
        counter_pid = b.spawn_program("test/counter", node=101)
        driver_pid = a.spawn_program("test/driver",
                                     args=(tuple(counter_pid), 5), node=1)
        wait_replies(fed, a, driver_pid, 5)
        # Cluster B's recorder holds the counter's stream; cluster A's
        # recorder has no entry for a foreign pid beyond placeholders.
        assert len(b.recorder.db.get(counter_pid).arrivals) == 5
        a_record = a.recorder.db.get(counter_pid)
        assert a_record is None or a_record.image == ""

    def test_remote_cluster_recovers_its_own_node(self):
        fed = build_federation()
        a, b = fed.clusters
        counter_pid = b.spawn_program("test/counter", node=101)
        driver_pid = a.spawn_program("test/driver",
                                     args=(tuple(counter_pid), 40), node=1)
        fed.run(1500)
        b.crash_node(101)
        driver = wait_replies(fed, a, driver_pid, 40)
        assert driver.replies == [sum(range(1, k + 1)) for k in range(1, 41)]
        assert b.recovery.stats.node_crashes_detected >= 1
        assert a.recovery.stats.node_crashes_detected == 0   # autonomy

    def test_gateway_retries_when_far_recorder_misses(self):
        fed = build_federation()
        a, b = fed.clusters
        counter_pid = b.spawn_program("test/counter", node=101)
        # Corrupt the next gateway-forwarded data frame at B's recorder:
        # the gateway holds custody and must retry until the far
        # cluster's recorder stores it.
        b.medium.faults.corrupt_next(
            lambda f, node: node == b.config.recorder_node_id
            and f.kind.value == "data" and f.src_node >= 9000)
        driver_pid = a.spawn_program("test/driver",
                                     args=(tuple(counter_pid), 5), node=1)
        driver = wait_replies(fed, a, driver_pid, 5)
        assert driver.replies == [sum(range(1, k + 1)) for k in range(1, 6)]
        assert any(g.forwarder.retries.value > 0 for g in fed.gateways)

    def test_three_clusters_full_mesh(self):
        fed = build_federation((1, 1, 1))
        assert len(fed.gateways) == 6      # 3 pairs × 2 directions
        a, b, c = fed.clusters
        counter_pid = c.spawn_program("test/counter", node=201)
        driver_pid = a.spawn_program("test/driver",
                                     args=(tuple(counter_pid), 5), node=1)
        driver = wait_replies(fed, a, driver_pid, 5)
        assert len(driver.replies) == 5


class TestGatewayUnits:
    def test_gateway_ignores_local_traffic(self):
        from repro.cluster.gateways import Gateway
        from repro.net.media import PerfectBroadcast, NetworkInterface
        from repro.net.frames import Frame, FrameKind
        from repro.sim import Engine

        engine = Engine()
        near = PerfectBroadcast(engine)
        far = PerfectBroadcast(engine)
        got_far = []
        near.attach(NetworkInterface(1, lambda f: None))
        near.attach(NetworkInterface(2, lambda f: None))
        far.attach(NetworkInterface(101, got_far.append))
        gateway = Gateway(engine, near, far, far_nodes=lambda n: n >= 100)
        # Local frame: must not cross.
        near.interfaces[0].send(Frame(kind=FrameKind.DATA, src_node=1,
                                      dst_node=2, payload="local",
                                      size_bytes=64))
        engine.run()
        assert gateway.forwarder.frames_forwarded.value == 0
        assert got_far == []
        # Foreign frame: crosses with the forwarding delay.
        near.interfaces[0].send(Frame(kind=FrameKind.DATA, src_node=1,
                                      dst_node=101, payload="remote",
                                      size_bytes=64))
        engine.run()
        assert gateway.forwarder.frames_forwarded.value == 1
        assert [f.payload for f in got_far] == ["remote"]

    def test_gateway_gives_up_after_max_retries(self, monkeypatch):
        from repro.cluster.gateways import Gateway
        from repro.net.media import PerfectBroadcast, NetworkInterface
        from repro.net.frames import Frame, FrameKind
        from repro.sim import Engine

        engine = Engine()
        near = PerfectBroadcast(engine)
        far = PerfectBroadcast(engine)
        near.attach(NetworkInterface(1, lambda f: None))
        dead = NetworkInterface(101, lambda f: None)
        dead.up = False
        far.attach(dead)
        monkeypatch.setattr(gateways, "GATEWAY_MAX_RETRIES", 4)
        gateway = Gateway(engine, near, far, far_nodes=lambda n: n >= 100)
        near.interfaces[0].send(Frame(kind=FrameKind.DATA, src_node=1,
                                      dst_node=101, payload="void",
                                      size_bytes=64))
        engine.run(until=10_000)
        # Four transmissions (attempt 0..3) each fail and schedule a
        # retry; the fifth would exceed the bound and is abandoned.
        assert gateway.forwarder.retries.value == 4
        assert gateway.forwarder.frames_forwarded.value == 4


class TestGatewayIds:
    """Gateway ids must be a pure function of the federation topology,
    never of process-global construction history."""

    def test_two_federations_in_one_process_get_identical_ids(self):
        first = ClusterFederation([1, 1])
        second = ClusterFederation([1, 1])
        assert ([g.gateway_id for g in first.gateways]
                == [g.gateway_id for g in second.gateways])
        assert [g.gateway_id for g in first.gateways] == [9000, 9002]

    def test_mesh_ids_are_topology_derived(self):
        from repro.cluster.gateways import directed_gateways
        assert directed_gateways(3, "mesh") == [
            (9000, 0, 1), (9002, 1, 0),
            (9004, 0, 2), (9006, 2, 0),
            (9008, 1, 2), (9010, 2, 1)]
        fed = ClusterFederation([1, 1, 1])
        assert sorted(g.gateway_id for g in fed.gateways) == [
            9000, 9002, 9004, 9006, 9008, 9010]

    def test_standalone_gateways_allocate_per_engine(self):
        from repro.cluster.gateways import Gateway
        from repro.net.media import PerfectBroadcast
        from repro.sim import Engine

        ids = []
        for _ in range(2):
            engine = Engine()
            near, far = PerfectBroadcast(engine), PerfectBroadcast(engine)
            a = Gateway(engine, near, far, far_nodes=lambda n: n >= 100)
            b = Gateway(engine, near, far, far_nodes=lambda n: n >= 100)
            ids.append((a.gateway_id, b.gateway_id))
        assert ids[0] == ids[1] == (9000, 9002)


class TestFederationConfigs:
    def test_caller_configs_are_copied_not_mutated(self):
        from dataclasses import asdict
        from repro.system import SystemConfig

        configs = [SystemConfig(nodes=1), SystemConfig(nodes=1)]
        before = [asdict(c) for c in configs]
        fed = ClusterFederation([1, 1], configs=configs)
        assert [asdict(c) for c in configs] == before
        assert fed.configs[0] is not configs[0]
        assert fed.configs[1].first_node_id == 101
        # Recorder ids live inside the cluster's stride block
        # (first + 89), so they stay unique at any cluster count.
        assert fed.configs[1].recorder_node_id == 190

    def test_config_length_mismatch_raises(self):
        from repro.system import SystemConfig

        with pytest.raises(NetworkError, match="configs"):
            ClusterFederation([1, 1], configs=[SystemConfig(nodes=1)])


class TestGatewayDeadLetters:
    def _dead_far_setup(self, monkeypatch):
        from repro.cluster.gateways import Gateway
        from repro.net.media import PerfectBroadcast, NetworkInterface
        from repro.obs import Observability
        from repro.sim import Engine

        engine = Engine()
        obs = Observability(lambda: engine.now)
        near = PerfectBroadcast(engine)
        far = PerfectBroadcast(engine)
        near.attach(NetworkInterface(1, lambda f: None))
        dead = NetworkInterface(101, lambda f: None)
        dead.up = False
        far.attach(dead)
        monkeypatch.setattr(gateways, "GATEWAY_MAX_RETRIES", 4)
        gateway = Gateway(engine, near, far, far_nodes=lambda n: n >= 100,
                          near_obs=obs, far_obs=obs)
        return engine, near, gateway, obs

    def test_retry_exhaustion_is_dead_lettered(self, monkeypatch):
        from repro.net.frames import Frame, FrameKind

        engine, near, gateway, obs = self._dead_far_setup(monkeypatch)
        drops = []
        gateway.forwarder.on_drop = lambda gid, frame, attempts: \
            drops.append((gid, frame.dst_node, attempts))
        near.interfaces[0].send(Frame(kind=FrameKind.DATA, src_node=1,
                                      dst_node=101, payload="void",
                                      size_bytes=64))
        engine.run(until=10_000)
        assert gateway.forwarder.frames_forwarded.value == 4
        assert gateway.forwarder.retries.value == 4
        assert gateway.forwarder.frames_dropped.value == 1
        assert drops == [(9000, 101, 4)]
        snapshot = obs.registry.snapshot()
        assert snapshot["gateway.9000.frames_dropped"] == 1
        assert snapshot["gateway.9000.frames_forwarded"] == 4
        assert snapshot["gateway.9000.frames_claimed"] == 1
        events = [e for e in obs.bus.events
                  if e.scope == "gateway" and e.category == "drop"]
        assert len(events) == 1
        assert events[0].subject == "gateway9000"
        assert events[0].detail["reason"] == "retries_exhausted"
        assert events[0].detail["dst"] == 101

    def test_federation_records_gateway_dead_letters(self, monkeypatch):
        fed, a, b, driver_pid, counter_pid = gateway_give_up_federation(
            monkeypatch)
        # Custody loss is permanent (the sender's transport was
        # satisfied when A's recorder stored the frame): the first
        # 'add' is gone and the driver stalls — which is precisely what
        # the dead-letter ledger and obs counters must surface.
        stalled = a.program_of(driver_pid)
        assert stalled.replies == []
        assert len(fed.dead_letters) == 1
        dropped = sum(v for cluster in fed.clusters
                      for k, v in cluster.metrics_snapshot().items()
                      if k.startswith("gateway.")
                      and k.endswith(".frames_dropped"))
        assert dropped == len(fed.dead_letters)
        # The gateway carries fresh traffic normally once the far
        # recorder hears it again.
        second_pid = a.spawn_program("test/driver",
                                     args=(tuple(counter_pid), 3), node=2)
        second = wait_replies(fed, a, second_pid, 3)
        assert second.replies == [sum(range(1, k + 1)) for k in range(1, 4)]


class TestDeadLetterLedger:
    def test_entries_are_structured_and_tuple_compatible(self):
        """Bugfix regression: both ledgers (system transport drops and
        gateway custody losses) hold the same DeadLetter shape, and
        legacy 3-tuple unpacking keeps working."""
        from repro.net.frames import DeadLetter, Frame, FrameKind

        letter = DeadLetter(9000, Frame(kind=FrameKind.DATA, src_node=1,
                                        dst_node=101, payload="p",
                                        size_bytes=64), 7)
        origin, payload, attempts = letter
        assert (origin, attempts) == (9000, 7)
        assert letter.origin == 9000 and letter.attempts == 7
        assert letter.payload is payload

    def test_invariant_counts_gateway_custody_losses(self, monkeypatch):
        """Bugfix regression: the chaos ``no_dead_letters`` invariant
        must see the federation's gateway ledger, not only the member
        systems' transport ledgers."""
        from repro.chaos import check_invariants

        fed, a, b, driver_pid, counter_pid = gateway_give_up_federation(
            monkeypatch)
        assert len(fed.dead_letters) == 1
        assert a.dead_letters == []        # transports were satisfied
        check = next(c for c in check_invariants(a)
                     if c.name == "no_dead_letters")
        assert not check.ok
        assert "gateway custody losses" in check.detail
        letter = fed.dead_letters[0]
        assert letter.origin == 9000 and letter.attempts >= 1
