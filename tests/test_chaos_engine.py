"""Tests for the chaos campaign engine (repro.chaos).

Covers the action vocabulary, the seed-determined monkey, bit-identical replay, partition/heal behaviour, the disk chaos
hooks, the faults-counter registry wiring, and the campaign report's
invariant checks.
"""

import json

import pytest

from repro import System, SystemConfig
from repro.chaos import (
    ByzantineRecorderFault,
    ChaosCampaign,
    CrashNode,
    CrashRecorder,
    DiskStall,
    Partition,
    RestartNode,
    RestartRecorder,
    check_invariants,
    monkey_campaign,
    run_scenario,
)
from repro.errors import ReproError, StorageError
from repro.net.faults import FaultPlan
from repro.net.media import PerfectBroadcast
from repro.net.transport import Transport
from repro.publishing.disk import DiskArray
from repro.sim import Engine, RngStreams


# ----------------------------------------------------------------------
# actions
# ----------------------------------------------------------------------

def test_campaign_actions_sorted_and_armed_once():
    campaign = ChaosCampaign([CrashNode(500.0, node=1),
                              CrashNode(100.0, node=2)])
    assert [a.at_ms for a in campaign.actions] == [100.0, 500.0]
    system = System(SystemConfig(nodes=1))
    campaign.arm(system)
    with pytest.raises(ReproError):
        campaign.arm(system)


def test_skipped_actions_are_counted_not_fatal():
    """Restarting an up node (a state race with the recovery manager's
    own reboot) is a skip, not an error."""
    system = System(SystemConfig(nodes=2))
    system.boot()
    campaign = ChaosCampaign([RestartNode(100.0, node=1),
                              RestartRecorder(120.0)]).arm(system)
    system.run(500)
    assert campaign.injected == 0
    assert campaign.skipped == 2
    skips = system.obs.bus.select(scope="chaos", category="skipped")
    assert len(skips) == 2


def test_restart_node_reboots_a_node_the_policy_left_down():
    """Under ``reboot_policy="none"`` a crashed node stays down until an
    operator reboot brings it back."""
    system = System(SystemConfig(nodes=2, reboot_policy="none"))
    system.boot()
    now = system.engine.now
    campaign = ChaosCampaign([CrashNode(now + 100.0, node=2),
                              RestartNode(now + 3000.0, node=2)]).arm(system)
    system.run(2500)
    assert not system.nodes[2].up
    system.run(1000)
    assert system.nodes[2].up
    assert (campaign.injected, campaign.skipped) == (2, 0)


def test_byzantine_window_closes_after_its_duration():
    """``duration_ms`` closes the fault window (the stage's rate drops
    to 0) while the stage stays armed, so no fault fires after it and
    the tally survives for the report; the workload stays exact."""
    campaign = ChaosCampaign([ByzantineRecorderFault(
        1000.0, modes=("duplicate",), rate=1.0, duration_ms=1500.0)])
    result = run_scenario(campaign, SystemConfig(nodes=2, master_seed=3),
                          pairs=1, messages=40)
    assert result.ok, result.report.to_dict()
    stage, = result.system.recorder.stages
    assert stage.rate == 0.0
    faults = result.system.obs.bus.select(scope="adversary")
    assert faults and len(faults) == stage.faults_injected
    assert all(1000.0 <= e.time <= 2500.0 for e in faults)
    assert result.report.figures["adversary_duplicates"] == len(faults)


def test_byzantine_fault_targets_only_the_live_recorders_it_names():
    """Named recorders that are up get a stage each, drawn from their
    own stream; a fault whose every target is down is a skip."""
    system = System(SystemConfig(nodes=2, recorder_shards=3,
                                 placement_policy="replica"))
    system.boot()
    first, second, third = (r.config.node_id for r in system.recorders)
    system.crash_recorder(2)
    now = system.engine.now
    campaign = ChaosCampaign([
        ByzantineRecorderFault(now + 100.0, recorders=(second, third)),
        ByzantineRecorderFault(now + 200.0, recorders=(third,)),
    ]).arm(system)
    system.run(500)
    assert (campaign.injected, campaign.skipped) == (1, 1)
    assert [len(r.stages) for r in system.recorders] == [0, 1, 0]
    assert system.recorders[1].stages[0].subject == f"recorder{second}"


# ----------------------------------------------------------------------
# the monkey
# ----------------------------------------------------------------------

def test_monkey_campaign_is_a_pure_function_of_seed():
    def build(seed):
        return monkey_campaign(RngStreams(seed), [1, 2, 3],
                               duration_ms=20_000.0).actions

    assert build(11) == build(11)
    assert build(11) != build(12)


def test_monkey_recorder_crashes_are_paired_with_restarts():
    campaign = monkey_campaign(RngStreams(5), [1, 2], duration_ms=60_000.0,
                               kinds=("crash_recorder",), mean_gap_ms=4000.0)
    kinds = [a.kind for a in campaign.actions]
    assert kinds.count("crash_recorder") >= 2
    assert kinds.count("crash_recorder") == kinds.count("restart_recorder")


# ----------------------------------------------------------------------
# faults registry + partitions
# ----------------------------------------------------------------------

def test_fault_counters_live_in_the_medium_registry():
    """FaultPlan losses/corruptions are registry counters (faults.*):
    the plan's attributes and the snapshot read the same objects."""
    engine = Engine()
    faults = FaultPlan()
    faults.lose_next(lambda f, node: node == 2, count=2)
    medium = PerfectBroadcast(engine, faults=faults)
    t1 = Transport(engine, medium, 1, lambda s: None)
    Transport(engine, medium, 2, lambda s: None)
    t1.send(2, "x", 64, uid=("p", 1))
    engine.run(until=2000)
    snapshot = medium.obs.registry.snapshot()
    assert snapshot["faults.losses"] == 2
    assert faults.losses.value == 2        # the same counter
    assert snapshot["faults.corruptions"] == 0


def test_partition_drops_cross_cut_frames_only():
    engine = Engine()
    faults = FaultPlan()
    medium = PerfectBroadcast(engine, faults=faults)
    got = {1: [], 2: [], 3: []}
    t1 = Transport(engine, medium, 1, lambda s: got[1].append(s.body))
    t2 = Transport(engine, medium, 2, lambda s: got[2].append(s.body))
    Transport(engine, medium, 3, lambda s: got[3].append(s.body))
    rule = faults.partition([1], [2, 3])
    # node2 -> node3 stays inside one group: unaffected.
    t2.send(3, "same-side", 64, uid=("a", 1))
    engine.run(until=300)
    assert got[3] == ["same-side"]
    assert faults.partition_drops.value == 0
    # node1 -> node2 crosses the cut: dropped until the rule lifts.
    t1.send(2, "cross", 64, uid=("b", 1))
    engine.run(until=600)
    assert got[2] == []
    assert faults.partition_drops.value >= 1
    assert rule.hits >= 1
    faults.remove_rule(rule)
    engine.run(until=30_000)
    assert got[2] == ["cross"]           # retransmission heals the gap


def test_partition_action_heals_itself_after_duration():
    system = System(SystemConfig(nodes=2))
    system.boot()
    ChaosCampaign([Partition(100.0, groups=((1,), (2,)),
                             duration_ms=300.0)]).arm(system)
    system.run(250)
    assert len(system._partitions) == 1
    system.run(5000)
    assert not system._partitions
    checks = {c.name: c.ok for c in check_invariants(system)}
    assert checks["partitions_healed"]


@pytest.mark.parametrize("layout, index, label", [
    ({"recorder_shards": 2}, 1, "recorder100"),
    ({"recorder_shards": 3, "placement_policy": "replica"}, 2,
     "recorder101"),
], ids=["shard_1_of_2", "replica_2_of_3"])
def test_invariants_judge_every_recorder_not_just_the_primary(
        layout, index, label):
    system = System(SystemConfig(nodes=4, **layout))
    system.boot()
    checks = {c.name: c for c in check_invariants(system)}
    assert checks["recorder_up"].ok
    assert checks["recorder_up"].detail == "recorder up"
    system.crash_recorder(index)         # ... and never restarted
    system.run(3000)
    assert system.recorder.up
    checks = {c.name: c for c in check_invariants(system)}
    assert not checks["recorder_up"].ok
    assert checks["recorder_up"].detail == f"{label} down"


def test_a_recorder_that_gives_up_leaves_dead_letters():
    """The recorder's transport feeds the same ledger as the nodes':
    with node 2 down for good, every guaranteed send the recorder
    retries out is a dead letter, and ``no_dead_letters`` sees it."""
    system = System(SystemConfig(nodes=2, reboot_policy="none",
                                 transport_max_retries=3))
    system.boot()
    system.run(2000)
    system.nodes[2].crash()
    system.run(120_000)
    recorder = system.recorder.config.node_id
    gave_up = system.metrics_snapshot()[f"transport.{recorder}.gave_up"]
    assert gave_up > 0
    assert len(system.dead_letters) == gave_up
    assert {letter.origin for letter in system.dead_letters} == {recorder}
    assert {letter.payload.dst_node for letter in system.dead_letters} == {2}
    check = next(c for c in check_invariants(system)
                 if c.name == "no_dead_letters")
    assert not check.ok


def test_each_recorder_shard_files_its_own_dead_letters():
    """With the recorder sharded, a give-up is filed under the node id
    of the shard whose transport gave up, and the shards' letters add
    up to their ``gave_up`` counters."""
    system = System(SystemConfig(nodes=4, recorder_shards=2,
                                 reboot_policy="none",
                                 transport_max_retries=3))
    system.boot()
    system.run(2000)
    for node in (2, 4):
        system.nodes[node].crash()
    system.run(120_000)
    snapshot = system.metrics_snapshot()
    by_origin = {}
    for letter in system.dead_letters:
        by_origin[letter.origin] = by_origin.get(letter.origin, 0) + 1
    shards = [r.config.node_id for r in system.recorders]
    assert set(by_origin) == set(shards)
    assert by_origin == {node: snapshot[f"transport.{node}.gave_up"]
                         for node in shards}


# ----------------------------------------------------------------------
# disk chaos hooks
# ----------------------------------------------------------------------

def test_disk_stall_defers_operations():
    engine = Engine()
    disks = DiskArray(engine, count=1)
    baseline = disks.submit("write", 2000)
    engine.run()
    stall_end = disks.stall(500.0)
    assert stall_end == engine.now + 500.0
    done = disks.submit("write", 2000)
    assert done >= stall_end          # op starts only after the stall
    assert done - stall_end == pytest.approx(baseline)


def test_disk_slowdown_scales_service_time_and_restores():
    engine = Engine()
    disks = DiskArray(engine, count=1)
    fast = disks.submit("write", 2000)
    engine.run()
    disks.set_slowdown(4.0)
    t0 = engine.now
    slow = disks.submit("write", 2000) - max(t0, fast)
    assert slow == pytest.approx(4.0 * fast)
    disks.set_slowdown(1.0)
    with pytest.raises(StorageError):
        disks.set_slowdown(0.0)


# ----------------------------------------------------------------------
# end-to-end campaigns
# ----------------------------------------------------------------------

def test_scenario_with_faults_passes_and_replays_bit_identically():
    def once():
        campaign = ChaosCampaign([
            CrashNode(1500.0, node=2),
            Partition(4000.0, groups=((1,), (2,)), duration_ms=800.0),
            DiskStall(5200.0, duration_ms=200.0),
        ], name="mini")
        return run_scenario(campaign,
                            SystemConfig(nodes=2, master_seed=99,
                                         checkpoint_policy="storage"),
                            pairs=2, messages=25)

    first = once()
    assert first.ok, first.report.to_dict()
    assert first.report.faults_injected == 3
    assert first.totals == [first.expected] * 2
    second = once()
    assert first.event_stream() == second.event_stream()
    assert first.report.to_dict() == second.report.to_dict()


def test_report_flags_missing_workload_and_json_shape():
    """A campaign that wedges the workload must FAIL the report."""
    campaign = ChaosCampaign([Partition(1000.0, groups=((1,), (2,)))],
                             name="never-healed")
    # Tiny deadline: the partition is still standing when we give up,
    # but run_scenario heals leftovers before reporting — the workload
    # shortfall is what must flag the failure.
    result = run_scenario(campaign,
                          SystemConfig(nodes=2, master_seed=3,
                                       checkpoint_policy="storage"),
                          pairs=1, messages=30, deadline_ms=2000.0,
                          settle_ms=1.0)
    assert not result.ok
    payload = result.report.to_dict()
    assert payload["ok"] is False
    names = [c["name"] for c in payload["invariants"]]
    assert "workload_exact" in names
    json.dumps(payload)                  # report must be JSON-serialisable


def test_chaos_events_ride_the_spine_in_order():
    """Every firing emits chaos.<kind> before the fault's own cascade."""
    system = System(SystemConfig(nodes=2))
    system.boot()
    ChaosCampaign([CrashNode(1000.0, node=2)]).arm(system)
    system.run(1500)
    events = list(system.obs.bus)
    chaos_idx = next(i for i, e in enumerate(events)
                     if e.scope == "chaos" and e.category == "crash_node")
    crash_idx = next(i for i, e in enumerate(events)
                     if e.scope.startswith("transport.2")
                     and e.category == "crash")
    assert chaos_idx < crash_idx
