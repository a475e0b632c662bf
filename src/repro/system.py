"""`System` — one-call construction of a publishing DEMOS/MP cluster.

Wires together everything the thesis's Figure 3.2 shows: processing
nodes running the DEMOS/MP kernel and system processes, a broadcast
medium the recorder passively listens to, the recorder with its disks
and stable storage, watchdogs, and the recovery manager.

Typical use::

    from repro import System, SystemConfig

    system = System(SystemConfig(nodes=2))
    system.registry.register("my/prog", MyProgram)
    system.boot()
    pid = system.spawn_program("my/prog", node=1)
    system.run(5_000)
    system.crash_node(1)          # fault injection
    system.run(20_000)            # transparent recovery happens here
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.demos.ids import ProcessId, kernel_pid
from repro.demos.kernel import KernelConfig, MessageKernel
from repro.demos.kernel_process import KERNEL_PROCESS_IMAGE, KernelProcessProgram
from repro.demos.messages import ProcessCrashed
from repro.demos.process import ProgramRegistry
from repro.demos.sysprocs import (
    MS_IMAGE,
    NLS_IMAGE,
    PM_IMAGE,
    MemoryScheduler,
    NamedLinkServer,
    ProcessManager,
)
from repro.errors import ConfigError, PlacementError, ReproError
from repro.net import MEDIA, build_medium, medium_class
from repro.net.faults import FaultPlan
from repro.net.frames import DeadLetter
from repro.net.transport import TransportConfig
from repro.publishing.checkpoints import CheckpointPolicy, install_policy
from repro.publishing.recorder import Recorder, RecorderConfig
from repro.publishing.recovery_manager import RecoveryManager, RecoveryStats
from repro.obs import Observability
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

if TYPE_CHECKING:   # imported where built: a run without them loads neither
    from repro.publishing.gossip import GossipCoordinator, ReceptionLoss
    from repro.publishing.multi_recorder import QuorumReplay

REBOOT_POLICIES = ("restart", "spare", "none")
#: every transport's first retransmission timer (TransportConfig's own
#: default is 100 ms) and the wait before a dead node reboots
RETRANSMIT_TIMEOUT_MS = 50.0
REBOOT_DELAY_MS = 1000.0


@dataclass
class SystemConfig:
    """Cluster-wide configuration."""

    nodes: int = 2
    #: first processing-node id; nodes are numbered consecutively from
    #: here (clusters use disjoint ranges, §6.2)
    first_node_id: int = 1
    publishing: bool = True
    #: a key of :data:`repro.net.MEDIA`
    medium: str = "broadcast"
    recorder_node_id: int = 99
    #: recorders (:func:`place`): 1 keeps the single §3.3 recorder,
    #: byte-identical to the pre-sharding behaviour; >1 builds one
    #: recorder + recovery manager per placed shard, with recorder j
    #: attached at ``recorder_node_id + j``
    recorder_shards: int = 1
    #: recorder layout policy: "range" (that many recorders splitting
    #: the node range, each claiming its slice) or "replica" (§6.3: that
    #: many recorders each recording everything, priority-vector
    #: takeover, majority replay from three up)
    placement_policy: str = "range"
    master_seed: int = 1983
    publish_path: str = "media_tap"
    #: what happens when the watchdog declares a node dead (§4.6's
    #: operator choices): "restart" reboots the same processor; "spare"
    #: swaps in a fresh processor that assumes the failed one's
    #: identity; "none" leaves the node down (recovery stalls until the
    #: operator intervenes via restart_node/spare_takeover).
    reboot_policy: str = "restart"
    #: transport window per node: 1 = the thesis's stop-and-wait ("only
    #: one unacknowledged message in transit from each processor"); >1
    #: enables the anticipated windowing scheme with receiver-side
    #: reordering (§4.3.3)
    transport_window: int = 1
    loss_rate: float = 0.0
    corruption_rate: float = 0.0
    #: automatic checkpoint policy installed on every node at boot:
    #: None, "young", "bound", or "storage" (§3.2.4 / §3.2.3 / §5.1)
    checkpoint_policy: Optional[str] = None
    #: the "bound" policy's per-process recovery-time bound
    recovery_bound_ms: float = 2_000.0
    #: epidemic repair layer (publishing.gossip): nodes keep bounded
    #: buffers of recent publications, the medium tolerates recorder
    #: misses, and the recorder pulls log holes closed in gossip rounds
    gossip: bool = False
    gossip_buffer_depth: int = 256
    gossip_round_ms: float = 150.0
    gossip_max_retries: int = 8
    #: seed-pure loss probability on the recording/repair path (frames
    #: missing every recorder; pull/supply datagrams dropped). Works
    #: with gossip off too — then strict recorder enforcement plus
    #: sender retransmission carries the load (the recorder-only arm
    #: of the reliability-vs-overhead frontier).
    gossip_loss_rate: float = 0.0


#: a federated cluster's shard 0 sits at ``first_node_id +
#: RECORDER_ID_OFFSET``, shard j at the next id up; with the federation
#: node stride of 100 this keeps the single-recorder id 90 for cluster 0
RECORDER_ID_OFFSET = 89


@dataclass(frozen=True)
class RecorderShard:
    """One recorder: its network id and the node ids ``[lo, hi)`` whose
    processes it records and whose recoveries its manager watches."""

    index: int      # 0 = the primary, the recorder kernels address
    node_id: int
    lo: int
    hi: int


@dataclass(frozen=True)
class Placement:
    """A cluster's recorder layout, pure data: every engine, worker
    process and model that places one configuration gets an equal value.
    """

    #: §6.3: every recorder records (and may recover) every node
    replicated: bool
    first_node_id: int
    nodes: int
    shards: Tuple[RecorderShard, ...]

    def shard_for(self, node_id: int) -> RecorderShard:
        """The first shard whose range holds ``node_id``."""
        for shard in self.shards:
            if shard.lo <= node_id < shard.hi:
                return shard
        raise PlacementError(
            f"node {node_id} is outside the placement "
            f"[{self.first_node_id}, {self.first_node_id + self.nodes})")


def place(c: SystemConfig) -> Placement:
    """The recorder layout of ``c``: ``recorder_shards`` recorders at
    consecutive ids from ``recorder_node_id``.

    "range" splits the node range into contiguous slices, shard j
    taking ``[first + j*n//k, first + (j+1)*n//k)`` (widths differ by
    at most one), and never places more shards than nodes. "replica"
    gives every recorder the whole range; its count is the availability
    wanted, so it is not capped: 2f+1 replicas outvote f Byzantine ones
    on a two-node cluster.
    """
    if c.placement_policy not in ("range", "replica"):
        raise PlacementError(f"unknown placement policy {c.placement_policy!r} "
                             "(expected 'range' or 'replica')")
    if c.recorder_shards < 1:
        raise PlacementError("a cluster needs at least one recorder shard, "
                             f"got {c.recorder_shards}")
    if c.nodes < 1:
        raise PlacementError("a cluster needs at least one node to place over")
    first, nodes, base = c.first_node_id, c.nodes, c.recorder_node_id
    replicated = c.placement_policy == "replica"
    count = c.recorder_shards if replicated else min(c.recorder_shards, nodes)
    if base < first + nodes and first < base + count:
        raise PlacementError(
            f"recorder ids [{base}, {base + count}) collide with the "
            f"node range [{first}, {first + nodes})")
    return Placement(replicated, first, nodes, tuple(
        RecorderShard(j, base + j, first, first + nodes) if replicated else
        RecorderShard(j, base + j, first + j * nodes // count,
                      first + (j + 1) * nodes // count)
        for j in range(count)))


def recorder_count(c: SystemConfig) -> int:
    """How many recorders the configured layout places (0: none)."""
    return len(place(c).shards) if c.publishing else 0


#: The one table of what does not compose, checked before anything is
#: built: (applies to this config, message formatted with ``c`` = the
#: config, binds only inside a :class:`~repro.cluster.ClusterFederation`).
#: ``docs/TUTORIAL.md`` lists the same rows and a test compares.
UNSUPPORTED: Tuple[Tuple[Callable[[SystemConfig], bool], str, bool], ...] = (
    (lambda c: c.reboot_policy not in REBOOT_POLICIES,
     "unknown reboot policy {c.reboot_policy!r}; choose from "
     + ", ".join(REBOOT_POLICIES), False),
    (lambda c: c.transport_window < 1,
     "transport_window={c.transport_window}: a window holds at least one "
     "message in flight (1 is the thesis's stop-and-wait)", False),
    (lambda c: not c.gossip_round_ms > 0,
     "gossip_round_ms={c.gossip_round_ms}: gossip rounds need a positive "
     "period", False),
    (lambda c: not all(0 <= rate <= 1 for rate in (
        c.loss_rate, c.corruption_rate, c.gossip_loss_rate)),
     "loss_rate={c.loss_rate}, corruption_rate={c.corruption_rate}, "
     "gossip_loss_rate={c.gossip_loss_rate}: each is a probability, in "
     "[0, 1]", False),
    (lambda c: c.medium == "star" and not c.publishing,
     "medium='star' needs publishing: its hub is the recorder (§4.1)", False),
    (lambda c: c.medium == "star" and recorder_count(c) > 1,
     "medium='star' has one hub, the recorder (§4.1): it cannot carry "
     "{c.recorder_shards} recorders", False),
    (lambda c: c.medium == "star" and c.publishing and c.gossip,
     "medium='star' and gossip repair are mutually exclusive (every frame "
     "passes through the recorder: no peer holds what it missed)", False),
    (lambda c: c.gossip and recorder_count(c) > 1,
     "several recorders and gossip repair are mutually exclusive (the "
     "gossip coordinator assumes one recorder)", False),
    (lambda c: c.medium in MEDIA
     and not medium_class(c.medium).provides_delivery_ack,
     "medium={c.medium!r} cannot be federated: a gateway learns a frame's "
     "fate from the hardware acknowledgement and it has none to give", True),
)


def check_config(config: SystemConfig, federated: bool = False) -> None:
    """Raise :class:`~repro.errors.ConfigError` for the first row of
    :data:`UNSUPPORTED` the configuration matches — the cluster rows,
    or the rows that only bind inside a federation."""
    for applies, message, in_federation in UNSUPPORTED:
        if in_federation is federated and applies(config):
            raise ConfigError(message.format(c=config))


class System:
    """A complete simulated publishing cluster."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 registry: Optional[ProgramRegistry] = None,
                 engine: Optional[Engine] = None):
        # A copy: the caller's object stays as it was given.
        self.config = replace(config) if config is not None else SystemConfig()
        check_config(self.config)
        self.engine = engine or Engine()
        #: set by ClusterFederation when this cluster lives in one —
        #: lets the chaos report count its gateways' dead letters
        self.federation = None
        self.rng = RngStreams(self.config.master_seed)
        #: one instrumentation spine (event bus + metrics registry)
        #: shared by every layer of the cluster
        self.obs = Observability(lambda: self.engine.now)
        self.events = self.obs.scope("sim")
        self.obs.registry.gauge_fn("sim.now", lambda: self.engine.now)
        self.obs.registry.gauge_fn("sim.events_fired",
                                   lambda: self.engine.events_fired)
        self.registry = registry or ProgramRegistry()
        self._register_builtin_images()
        self.faults = FaultPlan(rng=self.rng,
                                loss_rate=self.config.loss_rate,
                                corruption_rate=self.config.corruption_rate,
                                registry=self.obs.registry)
        self.medium = build_medium(
            self.config.medium, self.engine, self.rng, faults=self.faults,
            obs=self.obs)
        #: dead letters: one :class:`DeadLetter` (origin node, segment,
        #: attempts) for every guaranteed message some transport
        #: finally gave up on — same shape as the federation-level
        #: gateway ledger, so losslessness checks can sum both
        self.dead_letters: List[DeadLetter] = []
        #: active partition rules, in installation order
        self._partitions: List[object] = []
        self.recorder: Optional[Recorder] = None
        self.recovery: Optional[RecoveryManager] = None
        #: the recorder layout and one recorder / recovery manager per
        #: placed shard; ``recorder`` / ``recovery`` are the primary's
        #: (index 0)
        self.placement = place(self.config)
        self.recorders: List[Recorder] = []
        self.recoveries: List[RecoveryManager] = []
        #: the replicas' shared majority vote (three or more replicas)
        self.quorum: Optional[QuorumReplay] = None
        self._build_recorders()
        self.nodes: Dict[int, MessageKernel] = {}
        first = self.config.first_node_id
        for node_id in range(first, first + self.config.nodes):
            self.nodes[node_id] = self._build_node(node_id)
        for recovery in self.recoveries:
            recovery.node_restarter = self._restart_node_later
        #: epidemic repair layer (publishing.gossip) — built only when
        #: enabled, so legacy configurations register no gossip metrics
        #: and draw from no gossip RNG streams
        self.gossip: Optional[GossipCoordinator] = None
        self.reception_loss: Optional[ReceptionLoss] = None
        if self.config.publishing and self.config.gossip_loss_rate > 0.0:
            self.install_reception_loss(self.config.gossip_loss_rate)
        if self.config.publishing and self.config.gossip:
            from repro.publishing.gossip import GossipConfig, GossipCoordinator
            self.gossip = GossipCoordinator(self, GossipConfig(
                buffer_depth=self.config.gossip_buffer_depth,
                round_ms=self.config.gossip_round_ms,
                max_retries=self.config.gossip_max_retries))
            self.gossip.loss = self.reception_loss
            self.recovery.gossip = self.gossip

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _register_builtin_images(self) -> None:
        reg = self.registry
        if not reg.known(KERNEL_PROCESS_IMAGE):
            reg.register(KERNEL_PROCESS_IMAGE, KernelProcessProgram)
        if not reg.known(NLS_IMAGE):
            reg.register(NLS_IMAGE, NamedLinkServer)
        if not reg.known(PM_IMAGE):
            reg.register(PM_IMAGE, ProcessManager)
        if not reg.known(MS_IMAGE):
            reg.register(MS_IMAGE, MemoryScheduler)

    def _recorder_config(self, node_id: int) -> RecorderConfig:
        cfg = self.config
        return RecorderConfig(
            node_id=node_id,
            publish_path=cfg.publish_path,
            transport=TransportConfig(
                retransmit_timeout_ms=RETRANSMIT_TIMEOUT_MS,
                per_destination=True, window=1),
        )

    def _build_recorders(self) -> None:
        """Build one recorder + recovery manager per placed shard. Every
        recorder claims its shard's node range, ``range(shard.lo,
        shard.hi)``: it stores the records of those nodes' processes and
        no others (a lone recorder's and a replica's shard is the whole
        cluster). A sharded layout has shard 0, the primary — which
        receives the kernels' crash reports — dispatch each report to
        the owning shard's manager. A replicated layout (§6.3) gives
        each manager a coordinator over one shared table of priority
        vectors, V_i ranking the replicas by index for every node; from
        three replicas up (f >= 1) recoveries replay the cross-recorder
        majority."""
        cfg = self.config
        placement = self.placement
        if not cfg.publishing:
            return
        for shard in placement.shards:
            recorder = Recorder(self.engine, self.medium,
                                self._recorder_config(shard.node_id),
                                obs=self.obs,
                                claim=range(shard.lo, shard.hi))
            recorder.transport.on_gave_up = (
                lambda segment, attempts, _n=shard.node_id:
                self._note_dead_letter(_n, segment, attempts))
            manager = RecoveryManager(
                self.engine, recorder,
                node_ids=list(range(shard.lo, shard.hi)))
            self.recorders.append(recorder)
            self.recoveries.append(manager)
        self.recorder = self.recorders[0]
        self.recovery = self.recoveries[0]
        if len(self.recorders) == 1:
            return       # §3.3 as published: no new metrics, no new ids
        if placement.replicated:
            from repro.publishing.multi_recorder import (
                MultiRecorderCoordinator, QuorumReplay)
            replicas = [shard.node_id for shard in placement.shards]
            vectors = {node: list(replicas) for node in range(
                cfg.first_node_id, cfg.first_node_id + cfg.nodes)}
            if len(self.recorders) >= 3:
                self.quorum = QuorumReplay(self.recorders)
            for manager in self.recoveries:
                manager.coordinator = MultiRecorderCoordinator(
                    self.engine, manager, vectors)
                manager.coordinator.quorum = self.quorum
        else:
            # Kernels address crash reports to the primary shard's node
            # id; route each to the manager owning the crashed pid.
            def _route_process_crashed(control: ProcessCrashed,
                                       src_node: int) -> None:
                shard = placement.shard_for(control.pid.node)
                self.recoveries[shard.index]._on_process_crashed(
                    control, src_node)
            self.recorder.on_control(ProcessCrashed, _route_process_crashed)
        registry = self.obs.registry
        registry.gauge_fn("recorder.placement.shards",
                          lambda: len(self.recorders))
        for shard in placement.shards:
            registry.gauge_fn(
                f"recorder.placement.shard.{shard.node_id}.nodes",
                lambda _s=shard: _s.hi - _s.lo)
        # Every recorder and manager registered these on the one shared
        # registry and the last registration won; a cluster's figure is
        # the sum over its recorders.
        for name in RecoveryStats.FIELDS:
            registry.gauge_fn(f"recovery.{name}", lambda _n=name: sum(
                getattr(m.stats, _n) for m in self.recoveries))
        for name, read in Recorder.GAUGES.items():
            registry.gauge_fn(f"recorder.{name}", lambda _r=read: sum(
                _r(r) for r in self.recorders))

    def _build_node(self, node_id: int) -> MessageKernel:
        cfg = self.config
        kernel_config = KernelConfig(
            recorder_node=cfg.recorder_node_id if cfg.publishing else None,
            transport=TransportConfig(
                retransmit_timeout_ms=RETRANSMIT_TIMEOUT_MS,
                window=cfg.transport_window),
        )
        node = MessageKernel(self.engine, node_id, self.medium,
                             kernel_config, self.registry, obs=self.obs)
        node.transport.on_gave_up = (
            lambda segment, attempts, _n=node_id:
            self._note_dead_letter(_n, segment, attempts))
        return node

    def _note_dead_letter(self, node_id: int, segment, attempts: int) -> None:
        self.dead_letters.append(DeadLetter(node_id, segment, attempts))
        self.events.emit("dead_letter", f"node{node_id}",
                         dst=getattr(segment, "dst_node", None),
                         attempts=attempts)

    def install_reception_loss(self, rate: Optional[float] = None) -> ReceptionLoss:
        """Install (or re-rate) seed-pure loss on the recording path.

        Built lazily so loss-free systems make no ``gossip/loss`` RNG
        draws and register no gossip counters; the chaos ``gossip_loss``
        action lands here mid-run.
        """
        if self.reception_loss is None:
            from repro.publishing.gossip import ReceptionLoss
            self.reception_loss = ReceptionLoss(
                self.rng.stream("gossip/loss"),
                self.config.gossip_loss_rate if rate is None else rate,
                self.obs.registry)
            self.medium.recorder_loss = self.reception_loss.lose_reception
            if self.gossip is not None:
                self.gossip.loss = self.reception_loss
        elif rate is not None:
            self.reception_loss.set_rate(rate)
        return self.reception_loss

    def _restart_node_later(self, node_id: int) -> None:
        policy = self.config.reboot_policy
        if policy == "none":
            return
        node = self.nodes.get(node_id)
        if node is None or node.up:
            return
        if policy == "spare":
            self.engine.schedule(REBOOT_DELAY_MS, self.spare_takeover, node_id)
        else:
            self.engine.schedule(REBOOT_DELAY_MS, node.restart)

    def spare_takeover(self, node_id: int) -> MessageKernel:
        """Replace a failed processor with a spare that assumes its
        identity (§3.3.3: "it would be best to have one or more spare
        processors on the network that could assume the identities of
        failed processors").

        The dead node's interface is detached; a brand-new node —
        different hardware, same node id — attaches in its place with an
        empty kernel, and the recovery manager repopulates it exactly as
        it would a rebooted processor.
        """
        old = self.nodes.get(node_id)
        if old is None:
            raise ReproError(f"no node {node_id} to replace")
        if old.up:
            return old
        self.medium.detach(old.transport.iface)
        spare = self._build_node(node_id)
        # The spare's controls continue the failed kernel's numbering:
        # a receiver still remembering the old node's segment uids must
        # not take the spare's first controls for retransmissions.
        spare._control_seq = old._control_seq
        self.nodes[node_id] = spare
        if self.gossip is not None:
            # The spare starts with an empty (not absent) gossip buffer.
            self.gossip.attach_node(spare)
        self.events.emit("spare", f"node{node_id}", event="takeover")
        return spare

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def boot(self, settle_ms: float = 500.0) -> None:
        """Boot every node's kernel process and the system processes
        (on the first node), start the watchdogs, then let the engine
        settle."""
        cfg = self.config
        node_order = tuple(sorted(self.nodes))
        # Boot order fixes the local ids: NLS=(n,1), PM=(n,2), MS=(n,3).
        services_specs = (
            (NLS_IMAGE, (), (), True, 2),
            (PM_IMAGE, (), (("proc", 2),), True, 2),
            (MS_IMAGE, (node_order,),
             tuple(("kp", n) for n in node_order), True, 2),
        )
        nls_pid = (cfg.first_node_id, 1)
        for node_id, node in self.nodes.items():
            specs = services_specs if node_id == cfg.first_node_id else ()
            node.boot(boot_specs=specs, nls_pid=nls_pid)
        for recovery in self.recoveries:
            recovery.start()
        if cfg.checkpoint_policy is not None:
            self.install_checkpoint_policy(cfg.checkpoint_policy)
        if settle_ms > 0:
            self.run(settle_ms)
        if self.config.publishing:
            # Give every system process a first checkpoint so recovery
            # never needs to replay the boot sequence itself.
            self.checkpoint_all()

    def install_checkpoint_policy(self, name: str) -> CheckpointPolicy:
        """Install one of the thesis's checkpoint policies on every
        node: "young" (§3.2.4), "bound" (§3.2.3's recovery-time limit),
        or "storage" (§5.1's storage balance)."""
        from repro.publishing.checkpoints import (
            RecoveryTimeBoundPolicy,
            StorageBalancePolicy,
            YoungIntervalPolicy,
        )
        if name == "young":
            policy: CheckpointPolicy = YoungIntervalPolicy()
        elif name == "bound":
            policy = RecoveryTimeBoundPolicy(
                default_bound_ms=self.config.recovery_bound_ms)
        elif name == "storage":
            policy = StorageBalancePolicy()
        else:
            raise ReproError(
                f"unknown checkpoint policy {name!r}; "
                f"choose young, bound, or storage")
        for node in self.nodes.values():
            install_policy(node, policy)
        self.checkpoint_policy = policy
        return policy

    def run(self, duration_ms: float) -> float:
        """Advance the simulation ``duration_ms`` milliseconds."""
        return self.engine.run(until=self.engine.now + duration_ms)

    def wait_for(self, done: Callable[[], bool], limit_ms: float,
                  step_ms: Optional[float] = None) -> bool:
        """Advance until ``done()`` holds or ``limit_ms`` of simulated
        time has passed, ``step_ms`` at a time, or one event at a time
        when it is None; returns ``done()``."""
        engine = self.engine
        deadline = engine.now + limit_ms
        while not done() and engine.now < deadline:
            if step_ms is not None:
                engine.run(until=engine.now + step_ms)
            elif not engine.step():
                break
        return done()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        """A name-sorted snapshot of every registered metric."""
        return self.obs.registry.snapshot()

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def spawn_program(self, image: str, args: Tuple = (), node: int = 1,
                      recoverable: bool = True, state_pages: int = 4) -> ProcessId:
        """Create a process directly through the node's kernel process.

        This bypasses the PM→MS message chain (use a client program and
        the process manager for the fully message-based path). The
        kernel process's allocator state changes outside a message, so
        it is immediately re-checkpointed to keep its recovery sound.
        """
        kernel = self.nodes[node]
        kp_pcb = kernel.processes.get(kernel_pid(node))
        if kp_pcb is None:
            raise ReproError(f"node {node} is not booted")
        kp_program: KernelProcessProgram = kp_pcb.program  # type: ignore[assignment]
        pid = kp_program._allocate(node)
        kernel.create_process(image=image, args=args, pid=pid,
                              initial_links=kp_program._with_nls(()),
                              recoverable=recoverable, state_pages=state_pages)
        if self.config.publishing:
            kernel.checkpoint_process(kernel_pid(node))
        return pid

    def checkpoint_all(self) -> int:
        """Checkpoint every checkpointable process; returns the count."""
        count = 0
        for node in self.nodes.values():
            if not node.up:
                continue
            for pid in list(node.processes):
                if node.checkpoint_process(pid):
                    count += 1
        return count

    def checkpoint(self, pid: ProcessId) -> bool:
        """Checkpoint one process."""
        return self.nodes[pid_node(pid, self)].checkpoint_process(pid)

    def process_state(self, pid: ProcessId) -> Optional[str]:
        """The state name of a process, wherever it lives, or None."""
        for node in self.nodes.values():
            pcb = node.processes.get(pid)
            if pcb is not None:
                return pcb.state.value
        return None

    def program_of(self, pid: ProcessId):
        """The live program instance behind a pid (tests peek at state)."""
        for node in self.nodes.values():
            pcb = node.processes.get(pid)
            if pcb is not None:
                return pcb.program
        return None

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash_process(self, pid: ProcessId) -> None:
        """Halt one process; the crash is reported and recovery begins."""
        for node in self.nodes.values():
            if pid in node.processes:
                node.crash_process(pid)
                return
        raise ReproError(f"no such process {pid}")

    def crash_node(self, node_id: int) -> None:
        """Fail a whole processor; the watchdog will notice."""
        self.nodes[node_id].crash()

    def restart_node(self, node_id: int) -> None:
        """Reboot a down processor immediately (operator action); the
        recovery manager repopulates it as usual."""
        node = self.nodes[node_id]
        if not node.up:
            node.restart()

    def partition(self, *groups) -> object:
        """Cut the network into node groups: frames crossing the cut are
        dropped until :meth:`heal_partitions` (or ``heal(rule)``). Nodes
        named in no group — the recorder, typically — remain reachable,
        so the §4.3.3 "temporary network failure" hits node↔node traffic
        while publishing continues to observe whatever still flows."""
        rule = self.faults.partition(*groups)
        self._partitions.append(rule)
        self.events.emit("partition", "net",
                         groups=[sorted(g) for g in groups])
        return rule

    def heal(self, rule) -> None:
        """Lift one partition rule."""
        self.faults.remove_rule(rule)
        if rule in self._partitions:
            self._partitions.remove(rule)
        self.events.emit("partition_healed", "net")

    def heal_partitions(self) -> int:
        """Lift every active partition; returns how many were healed."""
        healed = 0
        for rule in list(self._partitions):
            self.heal(rule)
            healed += 1
        return healed

    def stall_disks(self, duration_ms: float) -> float:
        """Freeze the recorder's disk array (controller stall); returns
        the time the stall lifts."""
        if self.recorder is None:
            raise ReproError("this system has no recorder")
        ends = self.recorder.disks.stall(duration_ms)
        self.events.emit("disk_stall", "recorder", until=ends)
        return ends

    def slow_disks(self, factor: float) -> None:
        """Degrade (or with 1.0 restore) the recorder's disk speed."""
        if self.recorder is None:
            raise ReproError("this system has no recorder")
        self.recorder.disks.set_slowdown(factor)
        self.events.emit("disk_slowdown", "recorder", factor=factor)

    def crash_recorder(self, shard: int = 0) -> None:
        """Fail the recorder (or one shard of it); published traffic to
        its claimed range suspends while sibling shards keep acking."""
        if not self.recorders:
            raise ReproError("this system has no recorder")
        self.recorders[shard].crash()
        self.recoveries[shard].stop()

    def restart_recorder(self, shard: int = 0) -> int:
        """Restart the recorder (or one shard of it) and run the §3.3.4
        reconciliation."""
        if not self.recoveries:
            raise ReproError("this system has no recorder")
        return self.recoveries[shard].restart_recorder()


def pid_node(pid: ProcessId, system: System) -> int:
    """The node a pid currently lives on (falls back to its birth node)."""
    for node_id, node in system.nodes.items():
        if pid in node.processes:
            return node_id
    return pid.node
