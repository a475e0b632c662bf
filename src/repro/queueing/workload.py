"""Workload reconstruction: Figures 5.3 and 5.4.

The thesis measured "the most heavily utilized research VAX at UCB over
the period of a week", converting system calls to 128-byte messages and
I/O requests to 1024-byte messages, and established four operating
points: the mean, and one maximizing each of the three load parameters
(load average, state sizes, message traffic). The measured values are
not printed legibly in our source text, so the constants below are
**calibrated reconstructions** chosen to honour every quantitative
statement the narrative makes:

* at the *mean* point the recorder CPU is the binding resource and
  supports ≈115 users (§5.1's headline claim);
* at the *max message rate* (system-call) point the recorder saturates
  once more than ~3 processing nodes (~23 users each) are attached;
* at the *max disk access* point the disk system saturates when every
  message costs its own disk write, and stops saturating with 4 KB
  buffered writes;
* at the *max state sizes* point, worst-case checkpoint + message
  storage lands near the reported 2.76 MB;
* checkpoint traffic follows §5.1's policy — "a process is checkpointed
  whenever its published message storage exceeds its checkpoint size" —
  yielding intervals between ~1 s (4 KB processes at high message rate)
  and ~2 min (64 KB processes at low rate).

State sizes (Figure 5.3) range 4-64 KB with most processes small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigError
from repro.sim.rng import RngStreams

#: Message sizes of the two traffic classes (§5.1).
SHORT_BYTES = 128
LONG_BYTES = 1024
CHECKPOINT_MSG_BYTES = 1024


class StateSizeDistribution:
    """Reconstructed Figure 5.3: the distribution of UNIX process state
    sizes, 4 KB-64 KB, skewed small."""

    #: (state KB, probability) — masses sum to 1.
    TABLE: Tuple[Tuple[int, float], ...] = (
        (4, 0.35), (8, 0.25), (16, 0.18), (24, 0.08),
        (32, 0.06), (48, 0.04), (64, 0.04),
    )

    def __init__(self) -> None:
        total = sum(p for _, p in self.TABLE)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"state-size masses sum to {total}, not 1")

    def mean_kb(self) -> float:
        """Expected state size in KB."""
        return sum(kb * p for kb, p in self.TABLE)

    def pmf(self) -> Dict[int, float]:
        return dict(self.TABLE)

    def sample_kb(self, rng: RngStreams, stream: str = "state_sizes") -> int:
        """One draw from the distribution."""
        u = rng.stream(stream).random()
        acc = 0.0
        for kb, p in self.TABLE:
            acc += p
            if u <= acc:
                return kb
        return self.TABLE[-1][0]

    def sample_many(self, n: int, rng: RngStreams) -> List[int]:
        return [self.sample_kb(rng) for _ in range(n)]


@dataclass(frozen=True)
class OperatingPoint:
    """One Figure 5.4 operating point.

    Rates are per user per second; ``load_average`` is processes per
    processor and ``users_per_node`` maps users onto nodes (115 users /
    5 VAXes ≈ 23).
    """

    name: str
    short_rate: float            # 128 B messages / s / user
    long_rate: float             # 1024 B messages / s / user
    load_average: float          # processes per processor
    mean_state_kb: float         # mean changeable state
    users_per_node: int = 20

    def message_bytes_per_user(self) -> float:
        """Published message bytes per user-second (drives checkpoints)."""
        return self.short_rate * SHORT_BYTES + self.long_rate * LONG_BYTES


def checkpoint_traffic(point: OperatingPoint) -> Tuple[float, float]:
    """Checkpoint traffic implied by §5.1's storage-balance policy.

    Returns ``(checkpoint_packets_per_user_s, checkpoint_bytes_per_user_s)``.
    A process checkpoints when its published bytes exceed its state
    size, so each user continuously streams its state at the same byte
    rate as its messages — the packet rate is that byte rate divided by
    the 1024-byte checkpoint message.
    """
    byte_rate = point.message_bytes_per_user()
    return byte_rate / CHECKPOINT_MSG_BYTES, byte_rate


def checkpoint_interval_s(state_kb: float, message_bytes_per_s: float) -> float:
    """Seconds between checkpoints of one process under the policy."""
    if message_bytes_per_s <= 0:
        return float("inf")
    return state_kb * 1024.0 / message_bytes_per_s


#: Figure 5.4 — the four operating points (reconstructed; see module doc).
OPERATING_POINTS: Dict[str, OperatingPoint] = {
    "mean": OperatingPoint(
        name="mean", short_rate=7.9, long_rate=1.0,
        load_average=6.0, mean_state_kb=16.0),
    "max_load_average": OperatingPoint(
        name="max_load_average", short_rate=8.5, long_rate=1.1,
        load_average=14.0, mean_state_kb=16.0),
    "max_state_sizes": OperatingPoint(
        name="max_state_sizes", short_rate=8.2, long_rate=1.2,
        load_average=8.0, mean_state_kb=34.0),
    "max_message_rate": OperatingPoint(
        name="max_message_rate", short_rate=12.0, long_rate=2.5,
        load_average=7.0, mean_state_kb=16.0),
}
