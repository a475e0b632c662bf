"""Cluster configurations (§6.2)."""

from repro.cluster.gateways import (
    GATEWAY_ID_BASE,
    ClusterFederation,
    Gateway,
    GatewayForwarder,
    GatewayTap,
    directed_gateways,
    federation_edges,
    gateway_id_base,
)
from repro.cluster.placement import (
    RECORDER_ID_OFFSET,
    ClusterPlacement,
    RangeShardPolicy,
    RecorderShard,
    ReplicaPolicy,
    placement_priority_vectors,
    policy_from_name,
)

__all__ = [
    "GATEWAY_ID_BASE",
    "RECORDER_ID_OFFSET",
    "ClusterFederation",
    "ClusterPlacement",
    "Gateway",
    "GatewayForwarder",
    "GatewayTap",
    "RangeShardPolicy",
    "RecorderShard",
    "ReplicaPolicy",
    "directed_gateways",
    "federation_edges",
    "gateway_id_base",
    "placement_priority_vectors",
    "policy_from_name",
]
