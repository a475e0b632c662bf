"""repro.obs — the unified instrumentation spine.

One :class:`Observability` object per simulated cluster carries:

* an :class:`~repro.obs.events.EventBus` — the typed, scoped, totally
  ordered event stream every layer traces into;
* a :class:`~repro.obs.metrics.MetricsRegistry` — the counters, gauges,
  time-weighted averages, and histograms every layer registers into.

Layers reach their instruments through dotted scope names (``sim``,
``media.<kind>``, ``transport.<node>``, ``kernel.<node>``, ``recorder``,
``recovery``). There is one idiom: a layer holds the :class:`Counter`
the registry returned and writes it with ``.inc()`` (readers take
``.value``), holds the :class:`Scope` that ``obs.scope(name)`` returned
and writes it with ``.emit()``; benches and the CLI read everything back
through ``registry.snapshot()`` and ``obs.bus``.
"""

from typing import Callable, Optional

from repro.obs.events import Event, EventBus, Scope
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeWeightedAverage,
)


class Observability:
    """The event bus and metrics registry of one simulated cluster."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.bus = EventBus(clock)
        self.registry = MetricsRegistry(clock)

    def scope(self, name: str) -> Scope:
        """Shorthand for ``bus.scope(name)``."""
        return self.bus.scope(name)


__all__ = [
    "Counter",
    "Event",
    "EventBus",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Scope",
    "TimeWeightedAverage",
]
