"""Capacity and storage claims of §5.1 and §6.6.1.

* "The simulation shows that recorder, constructed from current
  technology, can support a system of up to 115 users."
* "The worst case for checkpoint and message storage was 2.76
  megabytes."
* §6.6.1: with the I/O-intensive disk-to-tape backups (15% of long
  messages at the maximum disk access rate) marked unrecoverable and
  therefore unpublished, "the recorder would be able to support one
  more VAX on the network."
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.queueing.model import OpenQueueingModel
from repro.queueing.workload import (
    OperatingPoint,
    StateSizeDistribution,
    checkpoint_interval_s,
)


def _probe_model(point: OperatingPoint, disks: int,
                 buffered: bool) -> OpenQueueingModel:
    """The single-node model a capacity probe sweeps user counts through.

    Per-class arrival rates are per-user figures times the user count
    and nothing else in the model depends on ``users_per_node``, so one
    model instance serves every probe of the bisection via the explicit
    ``users=`` override — the arithmetic is operation-for-operation the
    same as rebuilding ``replace(point, users_per_node=u)`` each time
    (pinned by ``tests/test_queueing.py``).
    """
    return OpenQueueingModel(point=point, nodes=1, disks=disks,
                             buffered_writes=buffered)


def capacity_in_users(point: OperatingPoint, disks: int = 1,
                      buffered: bool = True, limit: int = 2000) -> int:
    """Largest user count for which every station keeps ρ < 1."""
    model = _probe_model(point, disks, buffered)
    lo, hi = 0, 1
    while hi < limit and model.stable(users=hi):
        lo, hi = hi, hi * 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if model.stable(users=mid):
            lo = mid
        else:
            hi = mid
    return lo


def capacity_in_nodes(point: OperatingPoint, disks: int = 1,
                      buffered: bool = True) -> float:
    """Capacity expressed in processing nodes of ``users_per_node``."""
    users = capacity_in_users(point, disks, buffered)
    return users / point.users_per_node


def bottleneck(point: OperatingPoint, users: int, disks: int = 1,
               buffered: bool = True) -> str:
    """Which station has the highest utilization at ``users``."""
    model = _probe_model(point, disks, buffered)
    utils = model.utilizations(users=users)
    return max(utils, key=utils.get)


def selective_publishing_gain(point: OperatingPoint,
                              unrecoverable_share: float = 0.15,
                              disks: int = 1, buffered: bool = True
                              ) -> Dict[str, float]:
    """§6.6.1: capacity with and without publishing the unrecoverable
    processes. "Most prominent among these were the disk to tape
    backups, which accounted for 15% of the messages in the maximum disk
    access rate operating point. If these processes were not considered
    recoverable, the recorder would be able to support one more VAX on
    the network." Marking them unrecoverable removes their share of all
    recorder traffic (messages and the checkpoints they drive)."""
    base_users = capacity_in_users(point, disks, buffered)
    trimmed = replace(point,
                      short_rate=point.short_rate * (1.0 - unrecoverable_share),
                      long_rate=point.long_rate * (1.0 - unrecoverable_share))
    trimmed_users = capacity_in_users(trimmed, disks, buffered)
    return {
        "baseline_users": base_users,
        "selective_users": trimmed_users,
        "baseline_nodes": base_users / point.users_per_node,
        "selective_nodes": trimmed_users / point.users_per_node,
        "extra_nodes": (trimmed_users - base_users) / point.users_per_node,
    }


def storage_requirement_bytes(point: OperatingPoint, nodes: int = 5,
                              dist: Optional[StateSizeDistribution] = None
                              ) -> float:
    """Worst-case checkpoint + message storage under the storage-balance
    policy: each process holds up to one checkpoint plus up to one
    checkpoint's worth of messages — ≈ 2 × state size — times the
    process population (load average × processors)."""
    dist = dist or StateSizeDistribution()
    processes = point.load_average * nodes
    mean_state_bytes = point.mean_state_kb * 1024.0
    return processes * 2.0 * mean_state_bytes


def checkpoint_interval_extremes() -> Tuple[float, float]:
    """§5.1: "checkpoint intervals between 1 second for 4k byte
    processes during high message rates and 2 minutes for 64k byte
    processes during low message rates."

    Returns (shortest_s, longest_s) under the storage-balance policy
    for a 4 KB process receiving ~4 KB/s and a 64 KB process receiving
    ~0.55 KB/s.
    """
    shortest = checkpoint_interval_s(4.0, 4096.0)
    longest = checkpoint_interval_s(64.0, 560.0)
    return shortest, longest
