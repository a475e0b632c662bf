"""Full-stack integration over every medium model.

The same DEMOS/MP workload — including a crash and recovery — must work
unchanged over the perfect bus, the CSMA/CD Ethernet (explicit e2e ack
frames that contend), the Acknowledging Ethernet (reserved-slot acks),
the token ring (ack field), and the star hub (§4.1's actual Z8000
configuration). That is the §6.1 claim: publishing is a property of the
model, with per-medium mechanisms for the recorder acknowledgement.
"""

import ast
import re
from pathlib import Path

import pytest

from repro import System, SystemConfig
from repro.cluster import ClusterFederation
from repro.errors import ConfigError
from repro.net import MEDIA
from repro.system import UNSUPPORTED

from conftest import expected_totals, register_test_programs, run_counter_scenario

ALL_MEDIA = list(MEDIA)


def build(medium, **kwargs):
    system = System(SystemConfig(nodes=2, medium=medium, **kwargs))
    register_test_programs(system)
    system.boot()
    return system


def drive(system, driver_pid, n, max_ms=600_000):
    deadline = system.engine.now + max_ms
    while system.engine.now < deadline:
        driver = system.program_of(driver_pid)
        if driver is not None and len(driver.replies) >= n:
            return driver
        system.run(1000)
    return system.program_of(driver_pid)


@pytest.mark.parametrize("medium", ALL_MEDIA)
def test_workload_completes_on_every_medium(medium):
    system = build(medium)
    counter_pid, driver_pid = run_counter_scenario(system, n=15)
    driver = drive(system, driver_pid, 15)
    assert driver.replies == expected_totals(15)
    # Everything was published.
    record = system.recorder.db.get(counter_pid)
    assert len(record.arrivals) == 15


@pytest.mark.parametrize("medium", ALL_MEDIA)
def test_crash_recovery_on_every_medium(medium):
    system = build(medium)
    counter_pid, driver_pid = run_counter_scenario(system, n=25)
    system.run(800)                       # mid-stream on every medium
    system.crash_process(counter_pid)
    deadline = system.engine.now + 600_000
    while (system.engine.now < deadline
           and system.recovery.stats.recoveries_completed < 1):
        system.run(500)
    driver = drive(system, driver_pid, 25)
    assert driver.replies == expected_totals(25)
    counter = system.program_of(counter_pid)
    assert counter.seen == list(range(1, 26))
    assert system.recovery.stats.recoveries_completed == 1


@pytest.mark.parametrize("medium", ["broadcast", "acking_ethernet", "star"])
def test_node_crash_recovery_on_selected_media(medium):
    system = build(medium)
    counter_pid, driver_pid = run_counter_scenario(system, n=25)
    system.run(2000)
    system.crash_node(2)
    driver = drive(system, driver_pid, 25)
    assert driver.replies == expected_totals(25)


OTHER_MEDIA = [name for name in ALL_MEDIA if name != "broadcast"]


def _random_loss_masked(medium, loss):
    system = build(medium, loss_rate=loss)
    counter_pid, driver_pid = run_counter_scenario(system, n=20)
    driver = drive(system, driver_pid, 20)
    assert driver.replies == expected_totals(20)
    assert system.nodes[1].kernel.transport.stats.retransmissions.value > 0
    return system


def _random_corruption_masked(medium):
    system = build(medium, corruption_rate=0.05)
    counter_pid, driver_pid = run_counter_scenario(system, n=20)
    driver = drive(system, driver_pid, 20)
    assert driver.replies == expected_totals(20)
    return system


def _loss_plus_crash(medium):
    system = build(medium, loss_rate=0.05)
    counter_pid, driver_pid = run_counter_scenario(system, n=25)
    system.run(3000)
    system.crash_process(counter_pid)
    driver = drive(system, driver_pid, 25)
    assert driver.replies == expected_totals(25)
    counter = system.program_of(counter_pid)
    assert counter.seen == list(range(1, 26))


class TestLossyNetworks:
    """Publishing atop an unreliable medium: the transport's
    retransmission and the recorder-ack rule must mask random frame
    loss and corruption completely — on every medium (the ``broadcast``
    case keeps its own test ids; the ``*_on`` siblings run the rest)."""

    @pytest.mark.parametrize("loss", [0.02, 0.10])
    def test_random_loss_masked(self, loss):
        _random_loss_masked("broadcast", loss)

    def test_random_corruption_masked(self):
        _random_corruption_masked("broadcast")

    def test_loss_plus_crash(self):
        """Loss and a crash together: recovery still exact."""
        _loss_plus_crash("broadcast")

    @pytest.mark.parametrize("medium", OTHER_MEDIA)
    def test_random_loss_masked_on(self, medium):
        """The star's sender used to hear "delivered" when the hub
        forwarded, so a copy lost on the destination link was never
        re-sent: 6 of 40 replies, no dead letter."""
        system = _random_loss_masked(medium, 0.05)
        assert not system.dead_letters

    @pytest.mark.parametrize("medium", OTHER_MEDIA)
    def test_random_corruption_masked_on(self, medium):
        """The ring and the star used to acknowledge a copy that failed
        its checksum at the destination."""
        system = _random_corruption_masked(medium)
        assert not system.dead_letters
        assert sum(node.kernel.transport.stats.dropped_bad_checksum.value
                   for node in system.nodes.values()) > 0

    @pytest.mark.parametrize("medium", OTHER_MEDIA)
    def test_loss_plus_crash_on(self, medium):
        _loss_plus_crash(medium)

    def test_recorder_misses_masked_by_retransmission(self):
        """Frames the recorder fails to store are unusable and must be
        re-sent until recorded (§4.4.1)."""
        system = build("broadcast")
        # Recorder misses the next 3 data frames.
        system.faults.corrupt_next(
            lambda f, node: node == system.config.recorder_node_id
            and f.kind.value == "data", count=3)
        counter_pid, driver_pid = run_counter_scenario(system, n=10)
        driver = drive(system, driver_pid, 10)
        assert driver.replies == expected_totals(10)
        assert system.medium.stats.recorder_misses.value >= 1
        # Every delivered message is in the log exactly once.
        record = system.recorder.db.get(counter_pid)
        assert len(record.arrivals) == 10


# ----------------------------------------------------------------------
# docs/TUTORIAL.md, "What composes with what", against the code
# ----------------------------------------------------------------------
TUTORIAL = (Path(__file__).parent.parent / "docs" / "TUTORIAL.md").read_text()

#: the media table's columns, as the text under it spells them
FEATURES = {
    "loss": dict(loss_rate=0.05, corruption_rate=0.05),
    "gossip": dict(gossip=True, gossip_loss_rate=0.2),
    "shards": dict(recorder_shards=2),
    "replicas": dict(recorder_shards=3, placement_policy="replica"),
    "federation": {},
}


def doc_table(first_header):
    """The rows of the tutorial table whose first header cell is
    ``first_header``, each a list of its cells' text."""
    lines = TUTORIAL.split(f"| {first_header} |", 1)[1].splitlines()[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


MEDIA_TABLE = {(row[0].strip("`"), feature): cell
               for row in doc_table("Medium")
               for feature, cell in zip(FEATURES, row[1:])}


def test_tutorial_media_table_covers_the_lattice():
    assert sorted(MEDIA_TABLE) == sorted(
        (medium, feature) for medium in MEDIA for feature in FEATURES)
    assert set(MEDIA_TABLE.values()) == {"yes", "`ConfigError`"}


def federate(configs):
    fed = ClusterFederation([c.nodes for c in configs], configs=configs)
    for cluster in fed.clusters:
        register_test_programs(cluster)
    fed.boot()
    return fed


@pytest.mark.parametrize("medium, feature", sorted(MEDIA_TABLE))
def test_tutorial_media_table(medium, feature):
    """Every cell: *yes* survives a crash mid-stream with every reply
    exact and nothing dead-lettered, ``ConfigError`` raises before
    anything is built."""
    config = SystemConfig(nodes=2, medium=medium, recorder_node_id=90,
                          **FEATURES[feature])
    federated = feature == "federation"

    def construct():
        if federated:
            return federate([config, SystemConfig(nodes=2, medium=medium)])
        return build(medium, recorder_node_id=90, **FEATURES[feature])

    if MEDIA_TABLE[medium, feature] != "yes":
        with pytest.raises(ConfigError):
            construct()
        return
    world = construct()
    clusters = world.clusters if federated else [world, world]
    near, far = clusters[0], clusters[-1]
    counter_node = far.config.first_node_id + 1
    counter_pid = far.spawn_program("test/counter", node=counter_node)
    driver_pid = near.spawn_program(
        "test/driver", args=(tuple(counter_pid), 20),
        node=near.config.first_node_id)
    world.run(1000)
    if feature == "gossip":
        # a node crash with gossip on is docs/GOSSIP.md's "Known gap"
        far.crash_process(counter_pid)
    else:
        far.crash_node(counter_node)
    for _ in range(120):
        if len(near.program_of(driver_pid).replies) >= 20:
            break
        world.run(1000)
    assert near.program_of(driver_pid).replies == expected_totals(20)
    assert not any(cluster.dead_letters for cluster in clusters)
    assert not (federated and world.dead_letters)
    assert sum(m.stats.recoveries_completed for m in far.recoveries) >= 1


def _spelled(cell):
    """``key=value`` settings spelled in backticks in a table cell."""
    return {key: ast.literal_eval(value) for key, value in re.findall(
        r"(\w+)=(\"\w+\"|\w+)", ", ".join(re.findall(r"`([^`]*)`", cell)))}


def test_tutorial_lists_the_table_of_what_does_not_compose():
    """The "Refused" list is ``repro.system.UNSUPPORTED`` row for row,
    and the layouts table's "Rejected" column says ``gossip=True`` and
    ``medium="star"`` exactly where the code refuses them."""
    rejected = doc_table("Refused")
    assert len(rejected) == len(UNSUPPORTED)
    for (cell, _why), (_, message, federated) in zip(rejected, UNSUPPORTED):
        config = SystemConfig(nodes=2, **_spelled(cell))
        assert ("ClusterFederation" in cell) == federated
        with pytest.raises(ConfigError) as raised:
            if federated:
                ClusterFederation([2], configs=[config])
            else:
                System(config)
        assert str(raised.value) == message.format(c=config)
    for row in doc_table("Layout"):
        layout = _spelled(row[1].replace("=k", "=2").replace("=m", "=3"))
        for extra in ("gossip=True", 'medium="star"'):
            config = SystemConfig(nodes=17, **layout, **_spelled(f"`{extra}`"))
            try:
                System(config)
                refused = False
            except ConfigError:
                refused = True
            assert (extra in row[4]) == refused, (row[0], extra)
