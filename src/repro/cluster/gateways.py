"""LAN clusters joined by store-and-forward gateways (§6.2).

"More likely are cluster configurations made up of a number of
broadcast media networks connected via a store and forward network. ...
In these networks, a recorder can be attached to each cluster to
perform recovery for that cluster alone. The great advantage to this
scheme is autonomous control."

A gateway is split into its two halves, because they are the only
cross-cluster edges and therefore the natural cut line for partitioned
(parallel) execution:

* :class:`GatewayTap` sits on the **near** medium and claims frames
  whose destination lives on the far side (the near medium's hardware
  ack completes the original sender's transmission — the gateway takes
  custody). It stamps each claimed frame with its absolute forwarding
  time (``now + forward_delay_ms``) and hands it to a channel.
* :class:`GatewayForwarder` sits on the **far** medium: it re-offers
  custody frames with itself as the frame-level source, retrying until
  the far side — including its recorder — accepts, and surfaces retry
  exhaustion (or a crash of the gateway itself) as dead letters:
  ``gateway.<id>.frames_dropped`` on the far cluster's metrics spine
  plus a ``gateway.drop`` trace event, mirroring
  ``Transport.on_gave_up``.

:class:`Gateway` is the composite handle — both halves on one engine,
joined by a same-engine channel — and keeps the original one-object
API. In a partitioned federation the halves live on *different*
engines, joined by a :class:`~repro.sim.engine.PartitionChannel` whose
lookahead is exactly ``forward_delay_ms`` (see ``docs/PARALLEL_DES.md``).

:class:`ClusterFederation` builds N :class:`repro.system.System`
clusters with disjoint node-id ranges and gateway routing over a
``mesh`` (default) or ``ring`` topology — all on one engine
(``partitions=None``), or just the slice one logical process owns
(``partitions=P, only_partition=k``) for a pool worker of
:mod:`repro.parallel.des`.

Gateway/interface ids are deterministic: federation gateways derive
them from the topology (edge rank and direction, starting at
:data:`GATEWAY_ID_BASE`), and standalone gateways allocate from a
per-engine counter — never from process-global construction history,
so two federations built in one process get identical ids.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Set, Tuple
from weakref import WeakKeyDictionary

from repro.errors import NetworkError
from repro.net.frames import DeadLetter, Frame, FrameKind
from repro.net.media import Medium, NetworkInterface
from repro.obs import Observability, merge_event_streams, merge_snapshots
from repro.sim.engine import Engine, EngineCore, PartitionChannel
from repro.system import System, SystemConfig, check_config, recorder_count

#: First gateway/interface id; each gateway consumes two ids (near and
#: far side). Cluster node ranges stay far below this.
GATEWAY_ID_BASE = 9000

#: Federation cluster ``i`` numbers its nodes from ``1 + i * NODES_STRIDE``.
NODES_STRIDE = 100

#: A custody frame the far medium refused is re-offered after
#: ``GATEWAY_RETRY_MS``, and dead-lettered after ``GATEWAY_MAX_RETRIES``
#: attempts.
GATEWAY_RETRY_MS = 50.0
GATEWAY_MAX_RETRIES = 100

#: Federation gateway topologies.
TOPOLOGIES = ("mesh", "ring")

#: engine -> next standalone gateway id (ids are per-engine, not
#: process-global, so construction history elsewhere cannot skew them)
_engine_gateway_ids: "WeakKeyDictionary[EngineCore, int]" = WeakKeyDictionary()


def _allocate_gateway_id(engine: EngineCore) -> int:
    next_id = _engine_gateway_ids.get(engine, GATEWAY_ID_BASE)
    _engine_gateway_ids[engine] = next_id + 2
    return next_id


def federation_edges(clusters: int, topology: str = "mesh") -> List[Tuple[int, int]]:
    """The undirected cluster pairs a federation bridges, in id order.

    ``mesh`` bridges every pair; ``ring`` bridges neighbours only (so
    gateways scale O(N), but only neighbour-to-neighbour traffic is
    routable).
    """
    if topology == "mesh":
        return [(i, j) for i in range(clusters) for j in range(i + 1, clusters)]
    if topology == "ring":
        if clusters <= 1:
            return []
        if clusters == 2:
            return [(0, 1)]
        return [(i, i + 1) for i in range(clusters - 1)] + [(0, clusters - 1)]
    raise NetworkError(
        f"unknown federation topology {topology!r}; choose from {TOPOLOGIES}")


def gateway_id_base(clusters: int) -> int:
    """The first gateway id for a federation of this size.

    Small federations keep the historic :data:`GATEWAY_ID_BASE`;
    planet-scale ones (whose node ranges would run past 9000 — e.g.
    100 clusters) bump the base to the next multiple of it above the
    node-id ceiling, so gateway ids never collide with node or recorder
    ids at any scale.
    """
    top = 1 + clusters * NODES_STRIDE
    if top < GATEWAY_ID_BASE:
        return GATEWAY_ID_BASE
    return ((top // GATEWAY_ID_BASE) + 1) * GATEWAY_ID_BASE


def lp_of(index: int, partitions: int, clusters: int) -> int:
    """The logical process that owns cluster ``index`` when ``clusters``
    clusters are grouped into ``partitions`` contiguous blocks."""
    return index * partitions // clusters


def directed_gateways(clusters: int, topology: str = "mesh"
                      ) -> List[Tuple[int, int, int]]:
    """Every directed gateway as ``(gateway_id, src_cluster, dst_cluster)``.

    Ids are a pure function of the topology and the id layout — every
    process (and every pool worker rebuilding only its shard) computes
    the same ids.
    """
    first = gateway_id_base(clusters)
    out: List[Tuple[int, int, int]] = []
    for rank, (a, b) in enumerate(federation_edges(clusters, topology)):
        base = first + 4 * rank
        out.append((base, a, b))
        out.append((base + 2, b, a))
    return out


class GatewayForwarder:
    """The far half: holds custody, re-offers, retries, dead-letters.

    Frames enter through :meth:`accept` — directly scheduled by a
    same-engine channel, or injected at a window barrier by the
    partition scheduler.
    """

    def __init__(self, engine: EngineCore, far: Medium, gateway_id: int,
                 retry_ms: float = GATEWAY_RETRY_MS,
                 max_retries: int = GATEWAY_MAX_RETRIES,
                 service_ms: float = 0.0,
                 obs: Optional[Observability] = None,
                 on_drop: Optional[Callable[[int, Frame, int], None]] = None):
        self.engine = engine
        self.far = far
        self.gateway_id = gateway_id
        self.retry_ms = retry_ms
        self.max_retries = max_retries
        #: uplink serialisation time per custody frame: 0 (default)
        #: keeps the legacy infinite-server forwarder — frames re-offer
        #: the instant they arrive, digest-identical to earlier code.
        #: >0 models the gateway as a single-server FIFO queue, the
        #: station the federation capacity model predicts the knee of
        #: (repro.queueing.federation).
        self.service_ms = service_ms
        self._busy_until = 0.0
        self.on_drop = on_drop
        self.up = True
        self._awaiting: Dict[int, int] = {}    # frame_id -> attempts
        self._originals: Dict[int, Frame] = {}  # frame_id -> original frame
        obs = obs or Observability(lambda: engine.now)
        prefix = f"gateway.{gateway_id}"
        self.frames_forwarded = obs.registry.counter(
            f"{prefix}.frames_forwarded")
        self.retries = obs.registry.counter(f"{prefix}.retries")
        self.frames_dropped = obs.registry.counter(f"{prefix}.frames_dropped")
        if service_ms > 0.0:
            self.frames_serviced = obs.registry.counter(
                f"{prefix}.frames_serviced")
            self.service_wait_ms = obs.registry.counter(
                f"{prefix}.service_wait_ms")
        self.events = obs.scope("gateway")
        self.far_iface = NetworkInterface(
            gateway_id + 1, lambda frame: None,
            on_delivered=self._on_far_delivered)
        far.attach(self.far_iface)

    # ------------------------------------------------------------------
    def accept(self, frame: Frame) -> None:
        """Take custody of a claimed frame and start forwarding it.

        With ``service_ms`` set, custody frames serialise through a
        single-server FIFO: each transmission starts when the previous
        one finishes, so offered load beyond ``1000/service_ms``
        frames/s builds an unbounded backlog — the capacity knee."""
        if self.service_ms <= 0.0:
            self._forward(frame, 0)
            return
        now = self.engine.now
        start = self._busy_until if self._busy_until > now else now
        done = start + self.service_ms
        self._busy_until = done
        self.frames_serviced.inc()
        self.service_wait_ms.inc(done - now - self.service_ms)
        self.engine.schedule(done - now, self._forward, frame, 0)

    def _forward(self, frame: Frame, attempt: int) -> None:
        if not self.up:
            self._drop(frame, attempt, "gateway_down")
            return
        if attempt >= self.max_retries:
            self._drop(frame, attempt, "retries_exhausted")
            return
        clone = frame.clone_for(frame.dst_node)
        # The gateway takes custody: it is the frame-level source on the
        # far medium, so the far medium's hardware ack comes back here.
        clone.src_node = self.far_iface.node_id
        clone.recorder_acked = False
        self._awaiting[clone.frame_id] = attempt
        self._originals[clone.frame_id] = frame
        self.frames_forwarded.inc()
        self.far_iface.send(clone)

    def _on_far_delivered(self, frame: Frame, ok: bool) -> None:
        attempt = self._awaiting.pop(frame.frame_id, None)
        if attempt is None:
            return
        original = self._originals.pop(frame.frame_id, None)
        if ok or original is None:
            return
        self.retries.inc()
        self.engine.schedule(self.retry_ms, self._forward, original, attempt + 1)

    def _drop(self, frame: Frame, attempt: int, reason: str) -> None:
        """Dead-letter a custody frame, mirroring ``Transport.on_gave_up``."""
        self.frames_dropped.inc()
        self.events.emit("drop", f"gateway{self.gateway_id}",
                         dst=frame.dst_node, attempts=attempt,
                         reason=reason, bytes=frame.size_bytes)
        if self.on_drop is not None:
            self.on_drop(self.gateway_id, frame, attempt)

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail the far half: every frame in custody is lost and
        dead-lettered. Custody loss is *permanent* — the near-side
        sender's transport was satisfied when the near cluster's
        recorder stored the frame, so nothing upstream retransmits; the
        dead-letter ledger is how the loss surfaces. (Frames the tap
        had not yet claimed are safe: their senders keep retrying at
        the link level until the gateway is back.)"""
        if not self.up:
            return
        self.up = False
        self.far_iface.up = False
        for frame_id, attempt in list(self._awaiting.items()):
            original = self._originals.get(frame_id)
            if original is not None:
                self._drop(original, attempt, "gateway_crash")
        self._awaiting.clear()
        self._originals.clear()

    def restart(self) -> None:
        self.up = True
        self.far_iface.up = True


class GatewayTap:
    """The near half: claims far-bound frames and stamps their
    forwarding time into a channel."""

    def __init__(self, engine: EngineCore, near: Medium,
                 far_nodes: Callable[[int], bool], channel,
                 forward_delay_ms: float, gateway_id: int,
                 obs: Optional[Observability] = None):
        self.engine = engine
        self.near = near
        self.far_nodes = far_nodes
        self.channel = channel
        self.forward_delay_ms = forward_delay_ms
        self.gateway_id = gateway_id
        self.up = True
        obs = obs or Observability(lambda: engine.now)
        self.frames_claimed = obs.registry.counter(
            f"gateway.{gateway_id}.frames_claimed")
        self.near_iface = NetworkInterface(
            gateway_id, self._on_near_frame, accept_extra=far_nodes)
        near.attach(self.near_iface)

    def _on_near_frame(self, frame: Frame) -> None:
        if not self.up:
            return
        if frame.kind is not FrameKind.DATA:
            return
        if not self.far_nodes(frame.dst_node):
            return
        if not frame.checksum_ok():
            return   # the near sender's transport will retry
        self.frames_claimed.inc()
        self.channel.send(self.engine.now + self.forward_delay_ms, frame)

    def crash(self) -> None:
        self.up = False
        self.near_iface.up = False

    def restart(self) -> None:
        self.up = True
        self.near_iface.up = True


class _DirectChannel:
    """A same-engine gateway edge: schedule delivery at the exact
    stamped time (``schedule_abs`` — the same float ``schedule(delay)``
    would compute, so serial and partitioned fire times are identical)."""

    __slots__ = ("engine", "deliver")

    def __init__(self, engine: EngineCore, deliver: Callable[[Frame], None]):
        self.engine = engine
        self.deliver = deliver

    def send(self, fire_time: float, frame: Frame) -> None:
        self.engine.schedule_abs(fire_time, self.deliver, frame)


class Gateway:
    """A one-directional store-and-forward bridge between two media.

    The composite handle over a :class:`GatewayTap` and a
    :class:`GatewayForwarder`. Constructed directly, both halves share
    one engine (the classic serial gateway); a partitioned federation
    builds the halves on different engines and wraps them with
    :meth:`from_parts` (either half may be absent in a federation
    *slice* that only owns one side).
    """

    def __init__(self, engine: EngineCore, near: Medium, far: Medium,
                 far_nodes: Callable[[int], bool],
                 forward_delay_ms: float = 5.0,
                 retry_ms: float = GATEWAY_RETRY_MS,
                 max_retries: int = GATEWAY_MAX_RETRIES,
                 service_ms: float = 0.0,
                 gateway_id: Optional[int] = None,
                 near_obs: Optional[Observability] = None,
                 far_obs: Optional[Observability] = None,
                 on_drop: Optional[Callable[[int, Frame, int], None]] = None):
        if gateway_id is None:
            gateway_id = _allocate_gateway_id(engine)
        shared: Optional[Observability] = None
        if near_obs is None or far_obs is None:
            shared = Observability(lambda: engine.now)
        self.engine = engine
        self.near = near
        self.far = far
        self.far_nodes = far_nodes
        self.forward_delay_ms = forward_delay_ms
        self.retry_ms = retry_ms
        self.max_retries = max_retries
        self.gateway_id = gateway_id
        self.forwarder: Optional[GatewayForwarder] = GatewayForwarder(
            engine, far, gateway_id, retry_ms=retry_ms,
            max_retries=max_retries, service_ms=service_ms,
            obs=far_obs or shared, on_drop=on_drop)
        self.tap: Optional[GatewayTap] = GatewayTap(
            engine, near, far_nodes,
            _DirectChannel(engine, self.forwarder.accept),
            forward_delay_ms, gateway_id, obs=near_obs or shared)

    @classmethod
    def from_parts(cls, gateway_id: int, tap: Optional[GatewayTap],
                   forwarder: Optional[GatewayForwarder]) -> "Gateway":
        """Wrap pre-built halves (partitioned federations)."""
        gateway = cls.__new__(cls)
        gateway.engine = (tap or forwarder).engine if (tap or forwarder) else None
        gateway.near = tap.near if tap is not None else None
        gateway.far = forwarder.far if forwarder is not None else None
        gateway.far_nodes = tap.far_nodes if tap is not None else None
        gateway.forward_delay_ms = (tap.forward_delay_ms
                                    if tap is not None else None)
        gateway.retry_ms = forwarder.retry_ms if forwarder is not None else None
        gateway.max_retries = (forwarder.max_retries
                               if forwarder is not None else None)
        gateway.gateway_id = gateway_id
        gateway.tap = tap
        gateway.forwarder = forwarder
        return gateway

    @property
    def up(self) -> bool:
        return ((self.tap is None or self.tap.up)
                and (self.forwarder is None or self.forwarder.up))

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail both halves: claiming stops, custody frames are lost."""
        if self.tap is not None:
            self.tap.crash()
        if self.forwarder is not None:
            self.forwarder.crash()

    def restart(self) -> None:
        if self.tap is not None:
            self.tap.restart()
        if self.forwarder is not None:
            self.forwarder.restart()


class ClusterFederation:
    """Several publishing clusters, fully bridged.

    Each cluster is an independent :class:`System` — own medium, own
    recorder, own recovery manager ("each cluster can decide for itself
    how and whether or not it will perform recovery") — with disjoint
    node-id ranges so pids are globally unambiguous.

    ``partitions=None`` (default) runs every cluster on one shared
    engine — the serial reference.

    ``partitions=P, only_partition=k`` groups the clusters into P
    logical processes and builds just LP *k*'s slice on its one engine:
    its clusters, whole gateways for edges inside the slice, and for
    every cross-LP edge the half it owns — a tap for outgoing edges, a
    forwarder for incoming ones — joined to the absent half by a
    lookahead-stamped :class:`~repro.sim.engine.PartitionChannel`. Pool
    workers rebuild their slice from config this way and exchange
    frames at barriers (:mod:`repro.parallel.des`); event order is
    byte-identical to the serial engine (see ``docs/PARALLEL_DES.md``
    and ``tests/test_des_equivalence.py``). A slice cannot :meth:`run`
    itself — its pool master grants the windows — so ``partitions``
    without ``only_partition`` has no runner and is rejected.
    """

    def __init__(self, cluster_sizes: List[int],
                 forward_delay_ms: float = 5.0,
                 configs: Optional[List[SystemConfig]] = None,
                 partitions: Optional[int] = None,
                 topology: str = "mesh",
                 only_partition: Optional[int] = None,
                 forward_delays: Optional[Dict[Tuple[int, int], float]] = None):
        if not cluster_sizes:
            raise NetworkError("a federation needs at least one cluster")
        count = len(cluster_sizes)
        if configs is not None and len(configs) != count:
            raise NetworkError(
                f"{len(configs)} configs for {count} clusters — "
                f"configs must match cluster_sizes one-to-one")
        if topology not in TOPOLOGIES:
            raise NetworkError(
                f"unknown federation topology {topology!r}; "
                f"choose from {TOPOLOGIES}")
        if partitions is not None and partitions < 1:
            raise NetworkError(f"partitions must be >= 1, got {partitions}")
        if (partitions is None) != (only_partition is None):
            raise NetworkError(
                "partitions and only_partition go together: a partitioned "
                "federation exists only as the slices its pool workers "
                "build (see repro.parallel.des.run_pooled)")
        self.topology = topology
        self.forward_delay_ms = forward_delay_ms
        #: directed (src_cluster, dst_cluster) -> forwarding delay;
        #: edges not listed fall back to ``forward_delay_ms``. The delay
        #: is both the gateway's store-and-forward latency and the
        #: matching channel's lookahead, so a slow edge buys its
        #: destination a *wider* safe window instead of throttling
        #: everyone to the global minimum.
        self.forward_delays: Dict[Tuple[int, int], float] = dict(
            forward_delays or {})
        for edge, delay in self.forward_delays.items():
            if delay <= 0:
                raise NetworkError(
                    f"forward delay for edge {edge} must be positive, "
                    f"got {delay}")
        self.partitions = (None if partitions is None
                           else min(partitions, count))
        lps = self.partitions or 1
        if only_partition is not None and not 0 <= only_partition < lps:
            raise NetworkError(
                f"only_partition {only_partition} out of range "
                f"(partitions={lps})")
        self.only_partition = only_partition

        # Per-cluster configs: copied before the federation assigns the
        # id layout, so caller-owned config objects are never mutated.
        # Recorder shard ids live at ``first_node_id + 89 + j`` — inside
        # the cluster's stride block, so they stay globally unique at
        # any cluster count (the old ``90 + index`` scheme collided with
        # node ranges beyond ~10 clusters). Cluster 0 keeps id 90.
        from repro.cluster.placement import RECORDER_ID_OFFSET
        self.configs: List[SystemConfig] = []
        self._node_sets: List[Set[int]] = []
        for index, size in enumerate(cluster_sizes):
            if configs is not None:
                config = replace(configs[index])
            else:
                config = SystemConfig(nodes=size)
            config.first_node_id = 1 + index * NODES_STRIDE
            config.recorder_node_id = config.first_node_id + RECORDER_ID_OFFSET
            config.services_node = config.first_node_id
            check_config(config, federated=True)
            if config.nodes > RECORDER_ID_OFFSET:
                raise NetworkError(
                    f"cluster {index} has {config.nodes} nodes; the id "
                    f"layout fits at most {RECORDER_ID_OFFSET} per cluster")
            nodes = set(range(
                config.first_node_id, config.first_node_id + config.nodes))
            shard_count = recorder_count(config)
            if shard_count and RECORDER_ID_OFFSET + shard_count > NODES_STRIDE:
                raise NetworkError(
                    f"cluster {index}: {shard_count} recorder shards "
                    f"do not fit in a node stride of {NODES_STRIDE}")
            # Routable across gateways: a remote cluster can address
            # this cluster's recorders (cross-cluster recovery).
            nodes |= set(range(config.recorder_node_id,
                               config.recorder_node_id + shard_count))
            self.configs.append(config)
            self._node_sets.append(nodes)

        #: the one engine every local cluster runs on
        self.engine = Engine()
        #: cluster index -> System, local clusters only (all of them
        #: unless this is a slice)
        self.systems: Dict[int, System] = {}
        for index, config in enumerate(self.configs):
            if only_partition in (None, lp_of(index, lps, count)):
                system = System(config, engine=self.engine)
                system.federation = self
                system.cluster_index = index
                self.systems[index] = system
        self.clusters: List[System] = [self.systems[i]
                                       for i in sorted(self.systems)]
        #: one :class:`DeadLetter` (gateway_id, frame, attempts) for
        #: every custody frame a gateway finally dropped — the
        #: federation's dead-letter ledger, same shape as
        #: ``System.dead_letters`` so losslessness checks sum both
        self.dead_letters: List[DeadLetter] = []

        self.gateways: List[Gateway] = []
        #: cross-LP edges with one end in this slice (empty when serial)
        self.channels: List[PartitionChannel] = []
        for gid, src, dst in directed_gateways(count, topology):
            src_local, dst_local = src in self.systems, dst in self.systems
            delay = self.forward_delays.get((src, dst), forward_delay_ms)
            far_nodes = (lambda node, _far=self._node_sets[dst]: node in _far)
            if src_local and dst_local:
                self.gateways.append(Gateway(
                    self.engine, self.systems[src].medium,
                    self.systems[dst].medium, far_nodes,
                    forward_delay_ms=delay, gateway_id=gid,
                    near_obs=self.systems[src].obs,
                    far_obs=self.systems[dst].obs,
                    on_drop=self._note_gateway_drop))
                continue
            if not src_local and not dst_local:
                continue
            channel = PartitionChannel(
                f"gw{gid}", lp_of(src, lps, count), lp_of(dst, lps, count),
                lookahead_ms=delay)
            forwarder = tap = None
            if dst_local:
                forwarder = GatewayForwarder(
                    self.engine, self.systems[dst].medium, gid,
                    obs=self.systems[dst].obs,
                    on_drop=self._note_gateway_drop)
                channel.deliver = forwarder.accept
            else:
                tap = GatewayTap(
                    self.engine, self.systems[src].medium,
                    far_nodes, channel, delay, gid,
                    obs=self.systems[src].obs)
            self.gateways.append(Gateway.from_parts(gid, tap, forwarder))
            self.channels.append(channel)

    # ------------------------------------------------------------------
    def _note_gateway_drop(self, gateway_id: int, frame: Frame,
                           attempts: int) -> None:
        self.dead_letters.append(DeadLetter(gateway_id, frame, attempts))

    def gateway_edges(self) -> Dict[int, Tuple[int, int]]:
        """``gateway_id -> (src_cluster, dst_cluster)`` for every
        directed edge of the topology — including edges whose gateway
        object lives on a remote slice."""
        return {gid: (src, dst) for gid, src, dst in directed_gateways(
            len(self.configs), self.topology)}

    @property
    def now(self) -> float:
        """Current federation time."""
        return self.engine.now

    def boot(self, settle_ms: float = 500.0) -> None:
        for system in self.clusters:
            system.boot(settle_ms=0.0)
        self.run(settle_ms)
        for system in self.clusters:
            if system.config.publishing:
                system.checkpoint_all()

    def run(self, duration_ms: float) -> float:
        if self.only_partition is not None:
            raise NetworkError(
                "a federation slice is driven by its pool master, "
                "not run() (see repro.parallel.des)")
        return self.engine.run(until=self.engine.now + duration_ms)

    def cluster_of(self, node_id: int) -> System:
        for index, nodes in enumerate(self._node_sets):
            if node_id in nodes:
                system = self.systems.get(index)
                if system is None:
                    raise NetworkError(
                        f"node {node_id} belongs to cluster {index}, which "
                        f"is outside this federation slice")
                return system
        raise NetworkError(f"node {node_id} is in no cluster")

    # ------------------------------------------------------------------
    # cross-cluster recovery (§6.2 autonomous control, sharded)
    # ------------------------------------------------------------------
    def neighbours_of(self, cluster_index: int) -> List[int]:
        """Clusters sharing a gateway edge with ``cluster_index``."""
        return sorted(
            b if a == cluster_index else a
            for a, b in federation_edges(len(self.configs), self.topology)
            if cluster_index in (a, b))

    def _pick_helper(self, home_index: int) -> int:
        """The deterministic helper for a cross-cluster recovery: the
        lowest-indexed gateway neighbour whose primary recorder is up
        (the primary claims cross-cluster traffic, so it holds the
        passive replay log a remote recovery replays from)."""
        for index in self.neighbours_of(home_index):
            system = self.systems.get(index)
            if (system is not None and system.recorder is not None
                    and system.recorder.up):
                return index
        raise NetworkError(
            f"no gateway neighbour of cluster {home_index} has a live "
            f"recorder to recover from")

    def remote_recover(self, node_id: int,
                       helper: Optional[int] = None) -> int:
        """Recover every process on ``node_id`` by replaying from a
        *remote* cluster's recorder, routed through the gateways.

        The §6.2 escape hatch for a cluster whose own recorder shard is
        down: a gateway neighbour's primary recorder passively recorded
        the cross-cluster traffic (its tap claim doubles as the
        delivery observation), so it holds a replay log for the
        destination in its own medium's reception order. Process
        metadata (image, args, links) is copied from the home shard's
        stable-storage database — the publishing disk survives the
        recorder crash (§4.5) — while the message log replayed is the
        helper's own. The helper's recreate/replay/marker controls are
        ordinary guaranteed traffic and cross the fabric through the
        store-and-forward gateways.

        Returns how many process recoveries were started.
        """
        home = self.cluster_of(node_id)
        if helper is None:
            helper = self._pick_helper(home.cluster_index)
        helper_sys = self.systems.get(helper)
        if helper_sys is None:
            raise NetworkError(f"cluster {helper} is outside this slice")
        recorder = helper_sys.recorder
        manager = helper_sys.recovery
        if recorder is None or not recorder.up or manager is None:
            raise NetworkError(
                f"cluster {helper} has no live recorder to replay from")
        if not home.recorders:
            raise NetworkError(
                f"cluster {home.cluster_index} has no recorder database "
                f"to read process metadata from")
        # The home shard's database survives on stable storage even
        # when the recorder process is down (§4.5).
        home_recorder = home.recorders[
            home.placement.shard_for(node_id).index]
        home.restart_node(node_id)
        started = 0
        for record in home_recorder.db.processes_on(node_id):
            if record.image == "" or record.recovering:
                continue
            mine = recorder.db.create(
                record.pid, node=record.node, image=record.image,
                args=record.args, initial_links=record.initial_links,
                recoverable=record.recoverable,
                state_pages=record.state_pages)
            if mine.image == "":
                # Fill a placeholder the helper created from passive
                # message traffic before any metadata was known.
                mine.image = record.image
                mine.args = record.args
                mine.initial_links = record.initial_links
                mine.recoverable = record.recoverable
                mine.state_pages = record.state_pages
                mine.node = record.node
            if manager.start_recovery(mine, target_node=node_id):
                started += 1
        helper_sys.obs.registry.counter(
            "recorder.placement.remote_recoveries").inc(started)
        return started

    # ------------------------------------------------------------------
    # the merged observability spine
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        """Every cluster's metrics in one snapshot, keys prefixed
        ``cluster.<index>.`` — the per-LP registries merged back into a
        single spine view."""
        return merge_snapshots(
            (f"cluster.{index}", self.systems[index].metrics_snapshot())
            for index in sorted(self.systems))

    def merged_events(self) -> List[Dict[str, object]]:
        """Every cluster's trace events as one time-ordered stream;
        each record carries its ``cluster`` label. Ties on time keep
        cluster-index order (per-cluster order is always preserved)."""
        return merge_event_streams(
            (f"cluster.{index}", self.systems[index].obs.bus)
            for index in sorted(self.systems))

    def event_stream(self) -> str:
        """:meth:`merged_events` as JSON lines."""
        return "\n".join(json.dumps(record, sort_keys=True)
                         for record in self.merged_events())
