"""A failure-injection campaign: everything crashes, nothing is lost.

Three nodes, four concurrent client/server pairs, automatic storage-
balance checkpointing — then a scripted barrage of process crashes,
node crashes, and a full recorder outage, all mid-workload. At the end,
every client must have received exactly the replies of a crash-free
run and every server must have consumed exactly its inputs, in order.

This is the capstone integration test: it exercises watchdogs, crash
reports, checkpoint restore, replay, markers, send suppression, epoch
gating, recorder restart reconciliation, and ack tracing in one run.
"""

import pytest

from repro import System, SystemConfig
from repro.chaos import (
    ByzantineRecorderFault,
    ChaosCampaign,
    CrashNode,
    CrashRecorder,
    DiskSlowdown,
    DiskStall,
    Partition,
    RestartRecorder,
    run_scenario,
)

from conftest import expected_totals, register_test_programs

N = 50
PAIRS = 4


def build():
    system = System(SystemConfig(nodes=3, checkpoint_policy="storage",
                                 master_seed=42))
    register_test_programs(system)
    system.boot()
    pairs = []
    for i in range(PAIRS):
        counter_node = 1 + i % 3
        driver_node = 1 + (i + 1) % 3
        counter = system.spawn_program("test/counter", node=counter_node)
        driver = system.spawn_program("test/driver",
                                      args=(tuple(counter), N),
                                      node=driver_node)
        pairs.append((counter, driver))
    system.run(200)
    return system, pairs


def test_chaos_campaign_exact_results():
    system, pairs = build()

    # The barrage. Times are absolute sim ms; the workload runs ~10 s.
    system.run(600)
    system.crash_process(pairs[0][0])          # a server
    system.run(400)
    system.crash_process(pairs[1][1])          # a client
    system.run(500)
    system.crash_node(2)                       # a whole processor
    system.run(2500)
    system.crash_process(pairs[2][0])
    system.run(300)
    # Full recorder outage while traffic is in flight.
    system.crash_recorder()
    system.run(2500)
    system.restart_recorder()
    system.run(800)
    system.crash_process(pairs[3][0])          # one more for good measure

    deadline = system.engine.now + 900_000
    while system.engine.now < deadline:
        done = True
        for counter, driver in pairs:
            program = system.program_of(driver)
            if program is None or len(program.replies) < N:
                done = False
                break
        if done:
            break
        system.run(2000)

    for index, (counter, driver) in enumerate(pairs):
        driver_prog = system.program_of(driver)
        counter_prog = system.program_of(counter)
        assert driver_prog.replies == expected_totals(N), \
            f"pair {index}: client replies diverged"
        assert counter_prog.seen == list(range(1, N + 1)), \
            f"pair {index}: server inputs diverged"
    stats = system.recovery.stats
    assert stats.recoveries_completed >= 5
    assert stats.node_crashes_detected >= 1


# ----------------------------------------------------------------------
# seeded campaign matrix (repro.chaos): each scenario must preserve
# replay-equivalence — two runs of the same seeded campaign are
# bit-identical — and leave no transport wedged (queue_depth drains
# to 0, checked by the report's `transports_drained` invariant).
# ----------------------------------------------------------------------

CAMPAIGN_MATRIX = {
    # Recorder dies while it is mid-replay for a crashed node, then
    # comes back and reconciles (§3.3.4).
    "recorder_crash_mid_replay": lambda: ChaosCampaign([
        CrashNode(1200.0, node=2),
        CrashRecorder(3600.0),
        RestartRecorder(5400.0),
    ], name="recorder_crash_mid_replay"),
    # The node crashes again while catching up — the recursive-crash
    # epoch machinery (§3.5) must strand the old recovery and restart.
    "node_crash_during_catchup": lambda: ChaosCampaign([
        CrashNode(1200.0, node=2),
        CrashNode(4400.0, node=2),
    ], name="node_crash_during_catchup"),
    # A partition cuts the client from its servers, heals, and the
    # backed-off retransmissions must recover everything in order.
    "partition_heal": lambda: ChaosCampaign([
        Partition(1500.0, groups=((1,), (2, 3)), duration_ms=2200.0),
    ], name="partition_heal"),
    # A bare recorder outage while publications are in flight: acks
    # suspend (§3.3.4) and must resume cleanly at restart — the window
    # neither wedges the senders nor silently loses a message.
    "recorder_outage_mid_traffic": lambda: ChaosCampaign([
        CrashRecorder(1500.0),
        RestartRecorder(3300.0),
    ], name="recorder_outage_mid_traffic"),
    # The disks freeze, the recorder dies mid-stall with a partial page
    # staged in the group-commit buffer, then comes back: the lost
    # staged bytes must not cost any replayable message (durability is
    # at disk completion, the database itself is stable storage).
    "disk_stall_recorder_crash": lambda: ChaosCampaign([
        DiskStall(1000.0, duration_ms=2500.0),
        CrashRecorder(2200.0),
        RestartRecorder(4400.0),
    ], name="disk_stall_recorder_crash"),
    # The recorder turns Byzantine mid-traffic: records are dropped,
    # duplicated, corrupted, or reordered on its log while acks keep
    # flowing. A dropped record means a missing ack, so the sender
    # retransmits until a faithful copy lands — the workload must still
    # finish exactly, and the fault tally must be visible in the
    # report's adversary figures (docs/ADVERSARY.md).
    "byzantine_recorder_mid_traffic": lambda: ChaosCampaign([
        ByzantineRecorderFault(1200.0, rate=0.35, duration_ms=2600.0),
    ], name="byzantine_recorder_mid_traffic"),
    # Aging spindles: every disk operation takes six times as long, and
    # the recorder dies and returns while the backlog is deep. Acks
    # lag, nothing is lost, and the disks come back to full speed.
    "disk_slowdown_recorder_crash": lambda: ChaosCampaign([
        DiskSlowdown(1000.0, factor=6.0, duration_ms=3000.0),
        CrashRecorder(2000.0),
        RestartRecorder(3800.0),
    ], name="disk_slowdown_recorder_crash"),
    # The recorder crashes inside a standing partition: both outages
    # overlap, then lift one after the other, and the retransmissions
    # of both halves must still land every request once, in order.
    "partition_with_recorder_outage": lambda: ChaosCampaign([
        Partition(1500.0, groups=((1,), (2, 3)), duration_ms=2500.0),
        CrashRecorder(2000.0),
        RestartRecorder(3500.0),
    ], name="partition_with_recorder_outage"),
}


@pytest.mark.parametrize("scenario", sorted(CAMPAIGN_MATRIX))
def test_seeded_campaign_matrix(scenario):
    def once():
        return run_scenario(CAMPAIGN_MATRIX[scenario](),
                            SystemConfig(nodes=3, master_seed=77,
                                         checkpoint_policy="storage"),
                            pairs=2, messages=30)

    first = once()
    assert first.ok, f"{scenario}:\n{first.report.to_dict()}"
    drained = {c.name: c for c in first.report.invariants}["transports_drained"]
    assert drained.ok, drained.detail
    assert first.totals == [first.expected] * 2

    second = once()
    assert first.event_stream() == second.event_stream(), \
        f"{scenario}: replay diverged"
    assert first.report.to_dict() == second.report.to_dict()


def test_recorder_crash_loses_exactly_the_staged_page_bytes():
    """The group-commit buffer is not battery-backed: a recorder crash
    loses precisely the staged bytes that never reached a disk — and
    recovery still converges to the exact crash-free results, because
    durability was always counted at disk completion."""
    system, pairs = build()
    system.run(700)
    system.stall_disks(3000.0)          # freeze the spindles mid-traffic
    system.run(200)
    recorder = system.recorder
    staged = recorder.buffer._fill
    assert staged > 0                   # a partial page is in memory
    lost_before = recorder.buffer.bytes_lost
    system.crash_recorder()
    assert recorder.buffer.bytes_lost - lost_before == staged
    assert recorder.buffer._fill == 0
    assert recorder.disks.stall_ms > 0  # the stall split saw the freeze
    system.run(2500)
    system.restart_recorder()

    deadline = system.engine.now + 900_000
    while system.engine.now < deadline:
        if all(system.program_of(d) is not None
               and len(system.program_of(d).replies) >= N
               for _, d in pairs):
            break
        system.run(2000)
    for index, (counter, driver) in enumerate(pairs):
        assert system.program_of(driver).replies == expected_totals(N), \
            f"pair {index}: client replies diverged"
        assert system.program_of(counter).seen == list(range(1, N + 1)), \
            f"pair {index}: server inputs diverged"


def test_chaos_campaign_is_deterministic():
    """The same campaign twice gives bit-identical outcomes."""
    def run_once():
        system, pairs = build()
        system.run(600)
        system.crash_process(pairs[0][0])
        system.run(900)
        system.crash_node(3)
        deadline = system.engine.now + 600_000
        while system.engine.now < deadline:
            if all(system.program_of(d) is not None
                   and len(system.program_of(d).replies) >= N
                   for _, d in pairs):
                break
            system.run(2000)
        return (tuple(tuple(system.program_of(d).replies) for _, d in pairs),
                system.engine.events_fired)

    assert run_once() == run_once()
