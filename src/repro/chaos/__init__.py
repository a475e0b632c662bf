"""repro.chaos — deterministic fault-campaign engine.

Schedule timed faults (crashes, outages, partitions, disk stalls,
recording-path loss, Byzantine recorders) against a running
:class:`~repro.System`, or let the seed-determined monkey pick them;
then assert the thesis's reliability promises held. See
``docs/CHAOS.md`` and ``docs/ADVERSARY.md``.
"""

from repro.chaos.actions import (
    ByzantineRecorderFault,
    ChaosAction,
    CrashNode,
    CrashProcess,
    CrashRecorder,
    DiskSlowdown,
    DiskStall,
    GossipLoss,
    Partition,
    RestartNode,
    RestartRecorder,
)
from repro.chaos.adversary import (
    BYZANTINE_MODES,
    ByzantineRecorder,
    feed_record,
    run_quorum_scenario,
)
from repro.chaos.campaign import (
    MONKEY_KINDS,
    CampaignReport,
    ChaosCampaign,
    InvariantCheck,
    build_report,
    check_invariants,
    monkey_campaign,
)
from repro.chaos.workload import (
    CHAOS_COUNTER_IMAGE,
    CHAOS_DRIVER_IMAGE,
    ChaosCounter,
    ChaosDriver,
    ScenarioResult,
    expected_total,
    register_chaos_programs,
    run_scenario,
)

__all__ = [
    "BYZANTINE_MODES",
    "CHAOS_COUNTER_IMAGE",
    "CHAOS_DRIVER_IMAGE",
    "ByzantineRecorder",
    "ByzantineRecorderFault",
    "CampaignReport",
    "ChaosAction",
    "ChaosCampaign",
    "ChaosCounter",
    "ChaosDriver",
    "CrashNode",
    "CrashProcess",
    "CrashRecorder",
    "DiskSlowdown",
    "DiskStall",
    "GossipLoss",
    "InvariantCheck",
    "MONKEY_KINDS",
    "Partition",
    "RestartNode",
    "RestartRecorder",
    "ScenarioResult",
    "build_report",
    "check_invariants",
    "expected_total",
    "feed_record",
    "monkey_campaign",
    "register_chaos_programs",
    "run_quorum_scenario",
    "run_scenario",
]
