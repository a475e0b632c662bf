"""The Figure 5.1 open queuing model.

"The processing nodes are represented as message sources. Messages are
assumed to be delivered when they are broadcast, so the receiving nodes
do not appear in the model. A return path was included from the recovery
node to the network to take care of acknowledgments from the recording
process."

Three stations, timed by Figure 5.2's hardware (:mod:`repro.costs`):

* **network** — the broadcast channel (one server);
* **cpu** — the recording node's processor, 0.8 ms per packet;
* **disk** — 1-3 spindles; service per message is either a full disk
  operation (per-message writes) or the amortized share of a 4 KB page
  write (buffered mode, the §5.1 fix).

Three customer classes: short messages (128 B), long messages (1024 B),
and checkpoint messages (1024 B) whose rate follows the storage-balance
checkpoint policy. The acknowledgement return path adds one small frame
per data frame on the network station.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import costs
from repro.errors import QueueingModelError
from repro.queueing.workload import OperatingPoint, checkpoint_traffic


def wire_ms(message_bytes: int) -> float:
    """Channel occupancy of one frame: its bits at Figure 5.2's
    bandwidth, header included, plus the arbitration gap."""
    bits = (message_bytes + costs.HEADER_BYTES) * 8.0
    return bits / costs.BANDWIDTH_BPS * 1000.0 + costs.CHANNEL_GAP_MS


def disk_ms_per_byte_buffered() -> float:
    """Amortized disk time per stored byte with whole-page writes."""
    return costs.disk_op_ms(costs.DISK_PAGE_BYTES) / costs.DISK_PAGE_BYTES


@dataclass(frozen=True)
class StationLoad:
    """Aggregate offered load at one station."""

    name: str
    arrival_rate_per_s: float       # customers per second
    mean_service_ms: float          # per customer
    servers: int = 1

    @property
    def utilization(self) -> float:
        """ρ = λ·E[S]/c (may exceed 1 for an unstable station)."""
        return (self.arrival_rate_per_s * self.mean_service_ms / 1000.0
                / self.servers)

    @property
    def saturated(self) -> bool:
        return self.utilization >= 1.0


@dataclass
class OpenQueueingModel:
    """The Figure 5.1 network, parameterized by operating point, node
    count, disk count, and write mode."""

    point: OperatingPoint
    nodes: int = 5
    disks: int = 1
    buffered_writes: bool = True

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.disks < 1:
            raise QueueingModelError("need at least one node and one disk")

    # ------------------------------------------------------------------
    @property
    def users(self) -> int:
        return self.nodes * self.point.users_per_node

    def class_rates_per_s(self, users: Optional[int] = None
                          ) -> Dict[str, float]:
        """System-wide arrival rate of each message class.

        All per-class rates are per-user figures times the user count,
        so every method below accepts an explicit ``users`` override:
        capacity probes (:func:`repro.queueing.capacity.capacity_in_users`)
        build **one** model and sweep the user count through it instead
        of rebuilding the model per probe. ``None`` means the model's
        own ``nodes * users_per_node``.
        """
        ckpt_rate, _ = checkpoint_traffic(self.point)
        u = self.users if users is None else users
        return {
            "short": self.point.short_rate * u,
            "long": self.point.long_rate * u,
            "checkpoint": ckpt_rate * u,
        }

    def total_packet_rate_per_s(self, users: Optional[int] = None) -> float:
        return sum(self.class_rates_per_s(users).values())

    # ------------------------------------------------------------------
    def network_load(self, users: Optional[int] = None) -> StationLoad:
        rates = self.class_rates_per_s(users)
        total = sum(rates.values())
        if total <= 0:
            raise QueueingModelError("operating point generates no traffic")
        service = (
            rates["short"] * wire_ms(costs.SHORT_MSG_BYTES)
            + rates["long"] * wire_ms(costs.LONG_MSG_BYTES)
            + rates["checkpoint"] * wire_ms(costs.CHECKPOINT_MSG_BYTES)
            # the acknowledgment return path: one ack frame per data frame
            + total * wire_ms(costs.ACK_BYTES)
        ) / (2 * total)
        return StationLoad("network", arrival_rate_per_s=2 * total,
                           mean_service_ms=service)

    def cpu_load(self, users: Optional[int] = None) -> StationLoad:
        total = self.total_packet_rate_per_s(users)
        return StationLoad("cpu", arrival_rate_per_s=total,
                           mean_service_ms=costs.PACKET_CPU_MS)

    def disk_load(self, users: Optional[int] = None) -> StationLoad:
        rates = self.class_rates_per_s(users)
        total = sum(rates.values())
        if self.buffered_writes:
            per_byte = disk_ms_per_byte_buffered()
            service = (
                rates["short"] * costs.SHORT_MSG_BYTES
                + rates["long"] * costs.LONG_MSG_BYTES
                + rates["checkpoint"] * costs.CHECKPOINT_MSG_BYTES
            ) * per_byte / total
        else:
            service = (
                rates["short"] * costs.disk_op_ms(costs.SHORT_MSG_BYTES)
                + rates["long"] * costs.disk_op_ms(costs.LONG_MSG_BYTES)
                + rates["checkpoint"]
                * costs.disk_op_ms(costs.CHECKPOINT_MSG_BYTES)
            ) / total
        return StationLoad("disk", arrival_rate_per_s=total,
                           mean_service_ms=service, servers=self.disks)

    def stations(self, users: Optional[int] = None) -> List[StationLoad]:
        """All three stations of Figure 5.1."""
        return [self.network_load(users), self.cpu_load(users),
                self.disk_load(users)]

    def utilizations(self, users: Optional[int] = None) -> Dict[str, float]:
        """name → ρ, the Figure 5.5 quantities."""
        return {s.name: s.utilization for s in self.stations(users)}

    def stable(self, users: Optional[int] = None) -> bool:
        """True when every station keeps ρ < 1."""
        return all(not s.saturated for s in self.stations(users))
