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

__all__ = [
    "GATEWAY_ID_BASE",
    "ClusterFederation",
    "Gateway",
    "GatewayForwarder",
    "GatewayTap",
    "directed_gateways",
    "federation_edges",
    "gateway_id_base",
]
