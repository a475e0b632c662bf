"""The metrics registry — the counting half of the spine.

Every layer registers its figures here under a dotted name mirroring its
event scope (``media.csma.frames_offered``, ``transport.1.sent``,
``kernel.2.cpu.kernel_ms``, ``recorder.messages_recorded``, ...).
Four instrument kinds cover everything the benchmark suite reads:

* :class:`Counter` — monotonically increasing totals (frames, bytes,
  retransmissions, CPU milliseconds);
* :class:`Gauge` — point-in-time values, either set directly or derived
  from a callback at snapshot time (``sim.events_fired``);
* :class:`TimeWeightedAverage` — averages weighted by how long each
  value was held (transport queue depth);
* :class:`Histogram` — count/sum/min/max plus optional bucket counts
  (frame size distributions).

``registry.snapshot()`` returns one flat, name-sorted dict, which is the
uniform read path the benchmarks and the CLI use.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import MetricKindError


class Counter:
    """A monotonically increasing total (ints or float milliseconds)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def snapshot_value(self) -> Any:
        return self.value


class Gauge:
    """A point-in-time value, set directly or read from a callback."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], Any]] = None):
        self.name = name
        self._value: Any = 0
        self._fn = fn

    def set(self, value: Any) -> None:
        self._value = value

    @property
    def value(self) -> Any:
        return self._fn() if self._fn is not None else self._value

    def snapshot_value(self) -> Any:
        return self.value


class TimeWeightedAverage:
    """An average weighted by how long each value was held.

    ``update(v)`` records that the tracked quantity changed to ``v`` at
    the current clock time; the mean integrates the previous value over
    the elapsed interval.
    """

    __slots__ = ("name", "_clock", "_last_value", "_last_time", "_area",
                 "_t0", "_seen")

    def __init__(self, name: str, clock: Callable[[], float]):
        self.name = name
        self._clock = clock
        self._last_value = 0.0
        self._last_time = clock()
        self._t0 = self._last_time
        self._area = 0.0
        self._seen = False

    def update(self, value: float) -> None:
        now = self._clock()
        self._area += self._last_value * (now - self._last_time)
        self._last_value = value
        self._last_time = now
        self._seen = True

    @property
    def current(self) -> float:
        return self._last_value

    def mean(self) -> float:
        now = self._clock()
        area = self._area + self._last_value * (now - self._last_time)
        elapsed = now - self._t0
        if elapsed <= 0:
            return self._last_value if self._seen else 0.0
        return area / elapsed

    def snapshot_value(self) -> Dict[str, float]:
        return {"mean": self.mean(), "current": self.current}


class Histogram:
    """Count / sum / min / max, plus optional bucket counts."""

    __slots__ = ("name", "buckets", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None):
        self.name = name
        self.buckets = tuple(buckets) if buckets else ()
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self.buckets:
            # the first bound the value does not exceed, else the last
            # (overflow) bucket; bounds ascend
            self.bucket_counts[bisect_left(self.buckets, value)] += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot_value(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"count": self.count, "sum": self.total,
                               "min": self.min, "max": self.max}
        if self.buckets:
            out["buckets"] = {
                **{f"le_{b:g}": c
                   for b, c in zip(self.buckets, self.bucket_counts)},
                "inf": self.bucket_counts[-1],
            }
        return out


class MetricsRegistry:
    """The one place every layer registers and reads its figures."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self._metrics: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # registration (get-or-create; a name keeps its first kind)
    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind: type, factory):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise MetricKindError(
                    f"metric {name!r} is a {type(existing).__name__}, "
                    f"not a {kind.__name__}")
            return existing
        metric = self._metrics[name] = factory()
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def gauge_fn(self, name: str, fn: Callable[[], Any]) -> Gauge:
        """A gauge whose value is computed at snapshot time."""
        gauge = self._get_or_create(name, Gauge, lambda: Gauge(name, fn))
        gauge._fn = fn
        return gauge

    def timeavg(self, name: str) -> TimeWeightedAverage:
        return self._get_or_create(
            name, TimeWeightedAverage,
            lambda: TimeWeightedAverage(name, self._clock))

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get_or_create(name, Histogram,
                                   lambda: Histogram(name, buckets))

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def get(self, name: str) -> Any:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """Every metric's current value, keyed by name, name-sorted.

        This is the uniform read path: counters and gauges appear as
        plain numbers, time-weighted averages and histograms as small
        dicts.
        """
        return {name: self._metrics[name].snapshot_value()
                for name in sorted(self._metrics)}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def export_json(self, path: str) -> int:
        """Write the snapshot to ``path``; returns the metric count."""
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.to_json() + "\n")
        return len(self._metrics)
