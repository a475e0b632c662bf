"""Deterministic recorder placement for clusters and federations.

A cluster may host *several* recorders, laid out one of two ways: each
claiming a contiguous range of processing-node ids — the sharded
analogue of the single §3.3 recorder (``range`` / ``balanced``) — or
each recording the whole cluster, the paper's own §6.3 availability
extension (``replica``). Placement is a pure function of
the cluster layout (first node id, node count, shard count), so every
worker process of the parallel DES, the serial reference engine and
the capacity model all derive byte-identical shard maps without
coordination. :class:`~repro.system.System` builds whatever a placement
lays out; the recorder-layout table is in docs/TUTORIAL.md.

A placement answers three questions:

* **Which recorder owns node N?** — :meth:`ClusterPlacement.shard_for`.
* **Which recorder records cross-cluster traffic?** — the *primary*
  shard (index 0). Frames whose destination lies outside the local
  node range are claimed by the primary, which therefore accumulates a
  passive replay log for remote destinations; that log is what
  :meth:`~repro.cluster.gateways.ClusterFederation.remote_recover`
  replays when a remote cluster's own recorder is down.
* **In what order should a recovering node query recorders?** —
  :func:`placement_priority_vectors` bridges a placement into the
  §multi-recorder :class:`~repro.publishing.multi_recorder.PriorityVectors`
  (owning shard first, then the remaining shards by index).

Determinism contract: :meth:`ClusterPlacement.serialize` is canonical
(sorted keys, no floats, no timestamps); equal layouts produce
byte-identical serializations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.digest import canonical_json
from repro.errors import PlacementError

#: shard 0 of a cluster sits at ``first_node_id + RECORDER_ID_OFFSET``;
#: shard j at the next id up. With the federation node stride of 100
#: this reproduces the historic single-recorder id 90 for cluster 0.
RECORDER_ID_OFFSET = 89


@dataclass(frozen=True)
class RecorderShard:
    """One recorder's slice of a cluster: node id + claimed id range."""

    index: int      # shard ordinal within the cluster (0 = primary)
    node_id: int    # the recorder's own network id
    lo: int         # first claimed processing-node id (inclusive)
    hi: int         # one past the last claimed processing-node id

    def claims_node(self, node_id: int) -> bool:
        return self.lo <= node_id < self.hi

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def to_dict(self) -> Dict[str, int]:
        return {"index": self.index, "node_id": self.node_id,
                "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class ClusterPlacement:
    """The full shard map of one cluster (pure data, hashable)."""

    cluster_index: int
    first_node_id: int
    nodes: int
    policy: str
    shards: Tuple[RecorderShard, ...]

    # ------------------------------------------------------------------
    def shard_for(self, node_id: int) -> RecorderShard:
        """The shard owning ``node_id``'s range."""
        for shard in self.shards:
            if shard.claims_node(node_id):
                return shard
        raise PlacementError(
            f"node {node_id} is outside cluster {self.cluster_index}'s "
            f"placement [{self.first_node_id}, "
            f"{self.first_node_id + self.nodes})")

    def recorder_ids(self) -> Tuple[int, ...]:
        return tuple(shard.node_id for shard in self.shards)

    @property
    def replicated(self) -> bool:
        """§6.3: every recorder records every node."""
        return self.policy == ReplicaPolicy.name

    def claim_of(self, shard_index: int) -> Optional[Callable[[int], bool]]:
        """The claim predicate installed on shard ``shard_index``'s
        recorder (:attr:`repro.publishing.recorder.Recorder.claim`);
        None — claim everything — for a lone recorder and for replicas.

        A shard claims destinations inside its own range; the primary
        shard additionally claims every destination *outside* the local
        node range — gateway-bound cross-cluster traffic — so one
        recorder per cluster holds the passive remote replay log.
        """
        if self.replicated or len(self.shards) == 1:
            return None
        shard = self.shards[shard_index]
        if shard_index == 0:
            lo, hi = shard.lo, shard.hi
            first, limit = self.first_node_id, self.first_node_id + self.nodes

            def claim(node_id: int, _lo=lo, _hi=hi,
                      _first=first, _limit=limit) -> bool:
                if _lo <= node_id < _hi:
                    return True
                return not (_first <= node_id < _limit)
            return claim
        return shard.claims_node

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "cluster_index": self.cluster_index,
            "first_node_id": self.first_node_id,
            "nodes": self.nodes,
            "policy": self.policy,
            "shards": [shard.to_dict() for shard in self.shards],
        }

    def serialize(self) -> bytes:
        """Canonical byte-stable encoding (determinism test surface)."""
        return canonical_json(self.to_dict()).encode("utf-8")


# ----------------------------------------------------------------------
class RangeShardPolicy:
    """Split a cluster's node range into ``shards`` contiguous slices.

    Shard j claims ``[first + j*n//k, first + (j+1)*n//k)`` — the same
    integer arithmetic as a partitioned federation's
    :func:`~repro.cluster.gateways.lp_of`, so slice
    widths differ by at most one node and the map depends only on
    ``(first_node_id, nodes, shards)``.
    """

    name = "range"

    def __init__(self, shards: int = 1):
        if shards < 1:
            raise PlacementError(
                f"a cluster needs at least one recorder shard, got {shards}")
        self.shards = shards

    def shard_count(self, nodes: int) -> int:
        """Never place more shards than nodes (empty ranges record
        nothing and would waste a network id)."""
        return max(1, min(self.shards, nodes))

    def place(self, cluster_index: int, first_node_id: int, nodes: int,
              recorder_base: int) -> ClusterPlacement:
        if nodes < 1:
            raise PlacementError(
                f"cluster {cluster_index} has no nodes to place over")
        count = self.shard_count(nodes)
        if first_node_id <= recorder_base < first_node_id + nodes or \
                first_node_id < recorder_base + count <= first_node_id + nodes:
            raise PlacementError(
                f"recorder ids [{recorder_base}, {recorder_base + count}) "
                f"collide with cluster {cluster_index}'s node range "
                f"[{first_node_id}, {first_node_id + nodes})")
        shards = []
        for j in range(count):
            lo, hi = self.span(j, count, nodes)
            shards.append(RecorderShard(index=j, node_id=recorder_base + j,
                                        lo=first_node_id + lo,
                                        hi=first_node_id + hi))
        return ClusterPlacement(cluster_index=cluster_index,
                                first_node_id=first_node_id, nodes=nodes,
                                policy=self.name, shards=tuple(shards))

    def span(self, j: int, count: int, nodes: int) -> Tuple[int, int]:
        """Shard ``j`` of ``count``'s slice of ``range(nodes)``."""
        return j * nodes // count, (j + 1) * nodes // count


class LoadBalancedShardPolicy(RangeShardPolicy):
    """Size the shard count to the cluster's load instead of fixing it:
    one shard per ``nodes_per_shard`` processing nodes (rounded up),
    capped at ``max_shards``. Bigger clusters automatically grow more
    recorder shards — the "load balanced" placement of ISSUE 10."""

    name = "balanced"

    def __init__(self, nodes_per_shard: int = 16, max_shards: int = 8):
        if nodes_per_shard < 1:
            raise PlacementError(
                f"nodes_per_shard must be positive, got {nodes_per_shard}")
        super().__init__(shards=max_shards)
        self.nodes_per_shard = nodes_per_shard

    def shard_count(self, nodes: int) -> int:
        wanted = (nodes + self.nodes_per_shard - 1) // self.nodes_per_shard
        return max(1, min(self.shards, wanted, nodes))


class ReplicaPolicy(RangeShardPolicy):
    """§6.3's *m* recorders on one medium: every recorder records the
    whole cluster (no claim filter) and any of them can recover any
    node, in the order of the node's priority vector. The count is the
    availability wanted, not a function of the load, so it is not
    capped by the node count: 2f+1 replicas outvote f Byzantine ones
    on a two-node cluster."""

    name = "replica"

    def shard_count(self, nodes: int) -> int:
        return self.shards

    def span(self, j: int, count: int, nodes: int) -> Tuple[int, int]:
        return 0, nodes


def policy_from_name(name: str, shards: int = 1,
                     nodes_per_shard: int = 16) -> RangeShardPolicy:
    """CLI/workload bridge: build a placement policy from its name."""
    if name == "range":
        return RangeShardPolicy(shards=shards)
    if name == "balanced":
        return LoadBalancedShardPolicy(nodes_per_shard=nodes_per_shard,
                                       max_shards=shards)
    if name == "replica":
        return ReplicaPolicy(shards=shards)
    raise PlacementError(f"unknown placement policy {name!r} "
                         "(expected 'range', 'balanced' or 'replica')")


# ----------------------------------------------------------------------
def placement_priority_vectors(placement: ClusterPlacement):
    """Bridge a placement into the multi-recorder §3.3.4 machinery.

    Every node's priority vector ranks its *owning* shard first, then
    the remaining shards by index — so the multi-recorder claim
    protocol elects the shard that actually holds the node's records,
    and falls back deterministically when it is down. Replicas all
    hold every node's records; ``shard_for`` names the first, so their
    vectors are the recorders in index order.
    """
    from repro.publishing.multi_recorder import PriorityVectors
    vectors: Dict[int, List[int]] = {}
    for node in range(placement.first_node_id,
                      placement.first_node_id + placement.nodes):
        owner = placement.shard_for(node)
        rest = [shard.node_id for shard in placement.shards
                if shard.index != owner.index]
        vectors[node] = [owner.node_id] + rest
    return PriorityVectors(vectors)
