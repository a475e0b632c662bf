"""Deterministic discrete-event simulation engine.

Every node, network medium, disk, and recorder in the reproduction runs on
one :class:`~repro.sim.engine.Engine`. The engine is fully deterministic:
events at equal timestamps fire in scheduling order, and all randomness is
drawn from named, seeded streams (:class:`~repro.sim.rng.RngStreams`).
"""

from repro.sim.engine import (
    Engine,
    EventHandle,
    PartitionChannel,
    Signal,
)
from repro.sim.rng import RngStreams

__all__ = [
    "Engine",
    "EventHandle",
    "PartitionChannel",
    "Signal",
    "RngStreams",
]
