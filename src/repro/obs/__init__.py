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

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

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

    def snapshot(self):
        """Shorthand for ``registry.snapshot()``."""
        return self.registry.snapshot()


def merge_snapshots(
        parts: Iterable[Tuple[str, Dict[str, Any]]]) -> Dict[str, Any]:
    """Merge several labelled metrics snapshots into one spine view.

    Each part's keys are prefixed ``<label>.``; the merged snapshot is
    key-sorted so it serializes canonically regardless of part order.
    Used by partitioned federations to present per-LP registries as a
    single snapshot.
    """
    merged: Dict[str, Any] = {}
    for label, snapshot in parts:
        for key, value in snapshot.items():
            merged[f"{label}.{key}"] = value
    return dict(sorted(merged.items()))


def merge_event_streams(
        parts: Iterable[Tuple[str, EventBus]]) -> List[Dict[str, Any]]:
    """Merge several labelled event buses into one time-ordered stream.

    Each record gains a ``cluster`` field naming its source part. Ties
    on time are broken by part order then intra-bus order, so each
    bus's own total order is preserved and the merge is deterministic.
    """
    entries = []
    for part_index, (label, bus) in enumerate(parts):
        for position, event in enumerate(bus.events):
            record = event.to_dict()
            record["cluster"] = label
            entries.append((event.time, part_index, position, record))
    entries.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
    return [record for _, _, _, record in entries]


__all__ = [
    "Counter",
    "Event",
    "EventBus",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Scope",
    "merge_event_streams",
    "merge_snapshots",
    "TimeWeightedAverage",
]
