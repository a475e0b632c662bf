"""The six workloads: inputs from a seed, one pass, and its verdict.

A pass is ``build`` (set-up: construct, boot, spawn, and for
``recover_replay`` build the logs) followed by ``drive`` (the timed
section) and ``collect`` (verification and counts, untimed). Every pass
runs on a freshly built cluster from the same inputs, so simulated
facts repeat exactly and only host time varies.

Only the README-level API is used here: ``System``, ``SystemConfig``,
``ClusterFederation``, ``Program``, ``metrics_snapshot()`` and the
crash/checkpoint calls.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import ProcessId, System, SystemConfig
from repro.cluster import ClusterFederation
from repro.publishing.recovery_time import RecoveryTimeModel
from repro.queueing.workload import StateSizeDistribution
from repro.sim.rng import RngStreams, derive_seed

from programs import CLIENT_IMAGE, SERVER_IMAGE, Request, Tally, make_programs

#: the driver advances simulated time in slices of this length and
#: looks at progress (done? stalled? crash due?) between slices
SLICE_MS = 250.0
#: a round trip (or a recovery) not finished this long after the last
#: progress anywhere in the pass is a failed op
STALL_MS = 30_000.0
#: a round trip slower than this missed its deadline
OP_DEADLINE_MS = 20_000.0
#: ... and so did a recovery slower than this (four servers with 200
#: messages each, replaying through one node's CPU, need about 30 s)
RECOVERY_DEADLINE_MS = 120_000.0
#: idle simulated time run inside the timed section after the last
#: reply, so the final end-to-end acks land before the books close
SETTLE_MS = 500.0


@dataclass(frozen=True)
class Spec:
    """One workload: its shape, its frozen size, and why it exists."""

    name: str
    why: str
    nodes: int
    #: closed-loop clients (= servers: client k drives server k)
    pairs: int
    #: round trips per client per pass — the frozen size
    round_trips: int
    config: Dict[str, Any] = field(default_factory=dict)
    #: ``pairs``: request/reply traffic; ``replay``: crash/recover
    #: rounds over logs built in set-up; ``ring``: a federation
    kind: str = "pairs"
    #: checkpoint_churn: crash one server every this many messages
    crash_every: int = 0
    #: recover_replay: crash rounds per pass
    rounds: int = 0
    #: federation_ring: clusters
    clusters: int = 0


SPECS: Tuple[Spec, ...] = (
    Spec("publish_steady",
         "normal-operation publish path on a near-free medium: demos, "
         "net.transport, net.frames and publishing.recorder carry it",
         nodes=4, pairs=6, round_trips=700),
    Spec("publish_contended",
         "same traffic on lossy CSMA/CD with a window of 4: collisions, "
         "backoff, recorder-ack slots and retransmit timers do the work",
         nodes=6, pairs=10, round_trips=300,
         config=dict(medium="csma_ethernet", loss_rate=0.01,
                     transport_window=4)),
    Spec("recover_replay",
         "crash -> detect -> load checkpoint -> replay -> caught up: the "
         "store is read and the recovery manager, watchdog and kernel "
         "replay path run; nothing is appended but replay traffic",
         nodes=4, pairs=12, round_trips=200, kind="replay", rounds=40),
    Spec("checkpoint_churn",
         "appends, checkpoint-driven GC/compaction and KB checkpoint "
         "frames beside occasional replays: the store used the other "
         "way round from recover_replay",
         nodes=4, pairs=12, round_trips=300,
         config=dict(checkpoint_policy="bound", recovery_bound_ms=900.0),
         crash_every=600),
    Spec("gossip_lossy",
         "publish_contended with the epidemic repair layer on and 2% of "
         "recorder receptions lost: the only workload where "
         "publishing.gossip runs",
         nodes=6, pairs=10, round_trips=200,
         config=dict(medium="csma_ethernet", loss_rate=0.01,
                     transport_window=4, gossip=True,
                     gossip_loss_rate=0.02)),
    Spec("federation_ring",
         "16 clusters x 2 nodes in a ring, every round trip crossing two "
         "gateways: the only workload with cluster taps/forwarders and "
         "16 recorders alive at once; the serial baseline for parallel",
         nodes=2, pairs=16, round_trips=200, kind="ring", clusters=16),
)

BY_NAME = {spec.name: spec for spec in SPECS}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Inputs:
    """Everything a pass consumes, generated up front from the seed."""

    master_seed: int
    #: plans[k] is client k's request list
    plans: Tuple[Tuple[Request, ...], ...]
    #: checkpoint size of server k, in pages
    state_pages: Tuple[int, ...]
    #: which server each scheduled crash hits, in order
    crash_order: Tuple[int, ...]


def _payload_bytes(rng: random.Random) -> int:
    """Bimodal 32-1024 B: mostly short calls, some I/O-sized."""
    if rng.random() < 0.8:
        return rng.randrange(32, 129)
    return rng.randrange(512, 1025)


def make_inputs(spec: Spec, seed: int, scale: float = 1.0) -> Inputs:
    """The inputs of one workload for one seed.

    ``scale`` shrinks the frozen size (the traced pass runs at 0.5, the
    unit tests smaller still); it never grows it.
    """
    rng = random.Random(derive_seed(seed, f"bench/{spec.name}/plans"))
    trips = max(4, int(spec.round_trips * scale))
    plans = []
    for _ in range(spec.pairs):
        if spec.kind == "replay":
            # the server's distance past its checkpoint when it crashes
            count = max(4, int(rng.randrange(20, 201) * scale))
        else:
            count = trips
        plans.append(tuple(
            (rng.randrange(1, 1 << 16), _payload_bytes(rng),
             _payload_bytes(rng)) for _ in range(count)))
    sizes = StateSizeDistribution()
    streams = RngStreams(derive_seed(seed, f"bench/{spec.name}/state"))
    state_pages = tuple(sizes.sample_kb(streams) for _ in range(spec.pairs))
    order = random.Random(derive_seed(seed, f"bench/{spec.name}/crashes"))
    if spec.kind == "replay":
        crashes = max(2, int(spec.rounds * scale))
    elif spec.crash_every:
        crashes = 2 * spec.pairs * trips // spec.crash_every
    else:
        crashes = 0
    crash_order = tuple(order.randrange(spec.pairs) for _ in range(crashes))
    return Inputs(
        master_seed=derive_seed(seed, f"bench/{spec.name}/system") % (1 << 31),
        plans=tuple(plans), state_pages=state_pages, crash_order=crash_order)


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
class World:
    """A built cluster (or federation) ready for its timed section."""

    def __init__(self, spec: Spec, inputs: Inputs):
        self.spec = spec
        self.inputs = inputs
        config = dict(nodes=spec.nodes, master_seed=inputs.master_seed,
                      **spec.config)
        if spec.kind == "ring":
            self.federation: Optional[ClusterFederation] = ClusterFederation(
                [spec.nodes] * spec.clusters, topology="ring",
                configs=[SystemConfig(**config)
                         for _ in range(spec.clusters)])
            self.systems: List[System] = list(self.federation.clusters)
            self.engine = self.federation.engine
            self.run = self.federation.run
        else:
            self.federation = None
            system = System(SystemConfig(**config))
            self.systems = [system]
            self.engine = system.engine
            self.run = system.run
        self.tally = Tally(lambda: self.engine.now, inputs.plans)
        client, server = make_programs(self.tally)
        for system in self.systems:
            system.registry.register(CLIENT_IMAGE, client)
            system.registry.register(SERVER_IMAGE, server)
        (self.federation or self.systems[0]).boot()
        self.servers: List[Tuple[System, ProcessId]] = []
        self.started_at = 0.0
        self.finished_at = 0.0
        #: recover_replay: the server index of every recovery sample
        self.crashed: List[int] = []
        self.events_at_start = 0
        self._spawn()

    @property
    def now(self) -> float:
        return self.engine.now

    def _spawn(self) -> None:
        spec, pages = self.spec, self.inputs.state_pages
        for k in range(spec.pairs):
            if spec.kind == "ring":
                # client k in cluster k drives the server in cluster k+1
                home = self.systems[(k + 1) % spec.clusters]
                node = home.config.first_node_id + 1
            else:
                home = self.systems[0]
                node = 2 + k % (spec.nodes - 1)
            pid = home.spawn_program(SERVER_IMAGE, args=(k,), node=node,
                                     state_pages=pages[k])
            self.servers.append((home, pid))
        if spec.kind == "replay":
            # Give every server a real checkpoint to be reloaded from
            # (the initial image is not one), then build its log.
            self.run(SLICE_MS)
            for system, pid in self.servers:
                system.checkpoint(pid)
            self.run(SLICE_MS)
        for k, (_, pid) in enumerate(self.servers):
            home = self.systems[k] if spec.kind == "ring" else self.systems[0]
            home.spawn_program(CLIENT_IMAGE, args=(k, tuple(pid)),
                               node=home.config.first_node_id)
        if spec.kind == "replay":
            self._run_traffic()
            self.run(SETTLE_MS)

    # -- timed sections ----------------------------------------------------
    def drive(self) -> None:
        self.started_at = self.now
        self.events_at_start = self.engine.events_fired
        if self.spec.kind == "replay":
            self._run_crash_rounds()
        else:
            self._run_traffic()
            self.run(SETTLE_MS)

    def _stalled(self) -> bool:
        return self.now - self.tally.last_progress > STALL_MS

    def _run_traffic(self) -> None:
        tally, every = self.tally, self.spec.crash_every
        crashes = iter(self.inputs.crash_order if every else ())
        next_crash = every
        while not tally.done and not self._stalled():
            self.run(SLICE_MS)
            if every and tally.messages >= next_crash:
                next_crash += every
                victim = next(crashes, None)
                if victim is not None and not tally.done:
                    self._crash_servers([victim])
        self.finished_at = tally.last_progress

    def _run_crash_rounds(self) -> None:
        """Alternate a process crash with a whole-node crash; a round
        ends when every crashed server is caught up and live again."""
        system = self.systems[0]
        for number, victim in enumerate(self.inputs.crash_order):
            if number % 2 == 0:
                self._crash_servers([victim])
            else:
                node = self.servers[victim][1].node
                self._crash_servers(
                    [k for k, (_, pid) in enumerate(self.servers)
                     if pid.node == node], node=node)
            while ((self.tally.watching or not self._all_running())
                   and not self._stalled()):
                self.run(SLICE_MS)
            # let the node's other processes finish recovering too
            while (system.recovery.stats.recoveries_completed
                   < system.recovery.stats.recoveries_started
                   and not self._stalled()):
                self.run(SLICE_MS)
        self.finished_at = self.tally.last_progress

    def _all_running(self) -> bool:
        return all(system.process_state(pid) == "running"
                   for system, pid in self.servers)

    def _crash_servers(self, victims: Sequence[int],
                       node: Optional[int] = None) -> None:
        system, pid = self.servers[victims[0]]
        if self.spec.kind == "replay":
            for k in victims:
                self.tally.watch(k)
                self.crashed.append(k)
        if node is not None:
            system.crash_node(node)
        else:
            system.crash_process(pid)


# ----------------------------------------------------------------------
# the verdict of a pass
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def collect(world: World) -> Dict[str, Any]:
    """Verify a finished pass and reduce it to its simulated facts.

    Everything returned is a pure function of the inputs — the caller
    requires it to be identical across passes.
    """
    spec, tally, plans = world.spec, world.tally, world.inputs.plans
    failed = tally.bad_replies
    failed += sum(len(system.dead_letters) for system in world.systems)
    if world.federation is not None:
        failed += len(world.federation.dead_letters)
    wrong_state = 0
    for k, (system, pid) in enumerate(world.servers):
        program = system.program_of(pid)
        state = (None if program is None
                 else (program.total, program.count, program.digest))
        if state != tally.expected[k][-1]:
            wrong_state += 1
            failed += len(plans[k])
    if spec.kind == "replay":
        samples = [ms for _, ms in tally.catch_ups]
        attempted = sum(len(plans[k]) for k in world.crashed)
        ops = attempted - sum(len(plans[k]) for k in tally.watching)
        failed += sum(len(plans[k]) for k, ms in tally.catch_ups
                      if ms > RECOVERY_DEADLINE_MS)
    else:
        samples = tally.latencies
        attempted = 2 * sum(len(plan) for plan in plans)
        ops = tally.messages
        failed += sum(1 for sample in samples if sample > OP_DEADLINE_MS)
    failed += attempted - ops
    sim_ms = world.finished_at - world.started_at
    facts: Dict[str, Any] = {
        "ops": ops,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "wrong_server_states": wrong_state,
        "samples": len(samples),
        "sim_ms": sim_ms,
        "events": world.engine.events_fired - world.events_at_start,
        "sim_ms_per_op": sim_ms / max(ops, 1),
        "sim_latency_ms_p50": percentile(samples, 0.50) if samples else 0.0,
        "sim_latency_ms_p90": percentile(samples, 0.90) if samples else 0.0,
        "sim_latency_ms_p99": percentile(samples, 0.99) if samples else 0.0,
    }
    facts["counts"] = collect_counts(world, facts)
    return facts


def collect_counts(world: World, facts: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer counts, read from ``metrics_snapshot()`` and the engine
    after the pass. All deterministic for a seed."""
    snaps = [system.metrics_snapshot() for system in world.systems]
    ops = max(facts["ops"], 1)

    def total(prefix: str, suffix: str) -> float:
        """One metric summed over nodes and clusters."""
        return sum(value for snap in snaps for key, value in snap.items()
                   if key.startswith(prefix) and key.endswith(suffix))

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    elapsed = world.now
    sent = total("transport.", ".sent")
    recorded = total("recorder.", "messages_recorded")
    delivered = total("kernel.", ".messages_delivered")
    depth = [value["mean"] for snap in snaps for key, value in snap.items()
             if key.startswith("transport.") and key.endswith(".queue_depth")]
    repaired = total("gossip.", "messages_repaired")
    completed = total("recovery.", "recoveries_completed")
    counts = {
        "sim.events_per_op": facts["events"] / ops,
        "net.media.frames_per_op": total("media.", ".frames_offered") / ops,
        "net.media.collisions_per_op": total("media.", ".collisions") / ops,
        "net.media.utilization": ratio(
            total("media.", ".busy_time_ms"), elapsed * len(snaps)),
        "net.media.recorder_misses": total("media.", ".recorder_misses"),
        "net.transport.sent_per_op": sent / ops,
        "net.transport.retransmit_ratio": ratio(
            total("transport.", ".retransmissions"), sent),
        "net.transport.duplicates_suppressed": total(
            "transport.", ".duplicates_suppressed"),
        "net.transport.gave_up": total("transport.", ".gave_up"),
        "net.transport.queue_depth_mean": statistics.fmean(depth),
        "net.faults.losses": total("faults.", "losses"),
        "demos.kernel_cpu_ms_per_msg": ratio(
            total("kernel.", ".cpu.kernel_ms"), delivered),
        "publishing.recorder.recorded_per_op": recorded / ops,
        "publishing.recorder.cpu_ms_per_msg": ratio(
            total("recorder.", "cpu_busy_ms"), recorded),
        "publishing.recorder.duplicates_ignored": total(
            "recorder.", "duplicates_ignored"),
        "publishing.store.log_bytes": total("recorder.", "log_bytes"),
        "publishing.store.live_ratio": ratio(
            total("recorder.", "live_bytes"), total("recorder.", "log_bytes")),
        "publishing.store.segments_retired": total(
            "recorder.", "segments_retired"),
        "publishing.store.compactions": total("recorder.", "compactions"),
        "publishing.store.disk_busy_ratio": ratio(
            total("recorder.", "disk_busy_ms"), elapsed * len(snaps)),
        "publishing.recovery.recoveries_completed": completed,
        "publishing.recovery.replayed_per_recovery": ratio(
            total("recovery.", "messages_replayed"), completed),
        "publishing.gossip.repaired": repaired,
        "publishing.gossip.pulls_per_repair": ratio(
            total("gossip.", "pulls_sent"), repaired),
        "publishing.gossip.pull_bytes_per_repair": ratio(
            total("gossip.", "pull_bytes"), repaired),
        "publishing.gossip.gave_up": total("gossip.", "gave_up"),
        "cluster.frames_forwarded_per_op": total(
            "gateway.", ".frames_forwarded") / ops,
        "cluster.gateway_retries": total("gateway.", ".retries"),
        "cluster.frames_dropped": total("gateway.", ".frames_dropped"),
        "obs.events_per_op": sum(
            len(system.obs.bus) for system in world.systems) / ops,
    }
    counts.update(_recovery_timing(world))
    return counts


#: what :func:`collect_counts` reports, in its order:
#: (name, unit, which direction is better)
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events_per_op", "1/op", "lower"),
    ("net.media.frames_per_op", "1/op", "lower"),
    ("net.media.collisions_per_op", "1/op", "lower"),
    ("net.media.utilization", "ratio", "lower"),
    ("net.media.recorder_misses", "count", "lower"),
    ("net.transport.sent_per_op", "1/op", "lower"),
    ("net.transport.retransmit_ratio", "ratio", "lower"),
    ("net.transport.duplicates_suppressed", "count", "lower"),
    ("net.transport.gave_up", "count", "lower"),
    ("net.transport.queue_depth_mean", "count", "lower"),
    ("net.faults.losses", "count", "lower"),
    ("demos.kernel_cpu_ms_per_msg", "sim_ms", "lower"),
    ("publishing.recorder.recorded_per_op", "1/op", "lower"),
    ("publishing.recorder.cpu_ms_per_msg", "sim_ms", "lower"),
    ("publishing.recorder.duplicates_ignored", "count", "lower"),
    ("publishing.store.log_bytes", "B", "lower"),
    ("publishing.store.live_ratio", "ratio", "higher"),
    ("publishing.store.segments_retired", "count", "higher"),
    ("publishing.store.compactions", "count", "higher"),
    ("publishing.store.disk_busy_ratio", "ratio", "lower"),
    ("publishing.recovery.recoveries_completed", "count", "higher"),
    ("publishing.recovery.replayed_per_recovery", "count", "lower"),
    ("publishing.gossip.repaired", "count", "higher"),
    ("publishing.gossip.pulls_per_repair", "count", "lower"),
    ("publishing.gossip.pull_bytes_per_repair", "B", "lower"),
    ("publishing.gossip.gave_up", "count", "lower"),
    ("cluster.frames_forwarded_per_op", "1/op", "lower"),
    ("cluster.gateway_retries", "count", "lower"),
    ("cluster.frames_dropped", "count", "lower"),
    ("obs.events_per_op", "1/op", "lower"),
    ("publishing.recovery.detect_ms_p50", "sim_ms", "lower"),
    ("publishing.recovery.sim_vs_bound_ratio", "ratio", "lower"),
    ("publishing.recovery.sim_vs_bound_ratio_max", "ratio", "lower"),
)


def _recovery_timing(world: World) -> Dict[str, float]:
    """Crash -> recovery started, from the event spine; and measured
    crash -> caught-up against the §3.2.3 bound, from the inputs."""
    detect: List[float] = []
    for system in world.systems:
        crashed_at: Dict[str, float] = {}
        node_crashed_at: Dict[int, float] = {}
        for event in system.obs.bus:
            if event.category == "crash":
                if event.detail.get("scope") == "node":
                    node_crashed_at[int(event.subject[4:])] = event.time
                else:
                    crashed_at[event.subject] = event.time
            elif (event.category == "recovery"
                  and event.detail.get("event") == "recreated"):
                node = int(event.subject.split(".")[0])
                since = crashed_at.pop(event.subject,
                                       node_crashed_at.get(node))
                if since is not None:
                    detect.append(event.time - since)
    ratios: List[float] = []
    if world.spec.kind == "replay":
        model = RecoveryTimeModel()
        for k, measured in world.tally.catch_ups:
            plan = world.inputs.plans[k]
            bound = model.t_max_ms(
                checkpoint_pages=world.inputs.state_pages[k],
                message_count=len(plan),
                message_bytes=sum(size for _, size, _ in plan),
                exec_ms_since_checkpoint=float(len(plan)))
            ratios.append(measured / bound)
    return {
        "publishing.recovery.detect_ms_p50":
            percentile(detect, 0.5) if detect else 0.0,
        "publishing.recovery.sim_vs_bound_ratio":
            percentile(ratios, 0.5) if ratios else 0.0,
        "publishing.recovery.sim_vs_bound_ratio_max":
            max(ratios) if ratios else 0.0,
    }
