"""The discrete-event engine.

Time is a float, measured in **milliseconds** to match the units used
throughout the thesis (kernel-call costs, disk latencies, and recovery
times are all quoted in ms).

Two programming styles are supported:

* callback events — ``engine.schedule(delay, fn, *args)``;
* coroutine activities — ``engine.spawn(generator)`` where the generator
  yields either a float delay (sleep that long) or a :class:`Signal`
  (sleep until someone fires it).

Determinism: the event heap breaks timestamp ties by insertion sequence,
so two runs that schedule the same events in the same order are
bit-identical. Components must draw randomness only from
:class:`repro.sim.rng.RngStreams`.

Hot-path layout (``tests/test_engine_equivalence.py`` pins the firing
order against a naive reference implementation):

* heap entries are ``(time, seq, handle)`` tuples with a unique ``seq``,
  so ``heapq`` sifting compares floats/ints in C and never a handle;
* each event is one :class:`EventHandle`, pushed where it is scheduled
  (no helper frame) and dispatched by one loop (:meth:`Engine.step` is
  ``run(max_events=1)``);
* the clock is a plain attribute, :attr:`Engine.now`, which only
  :meth:`Engine.run` writes;
* cancelled events are removed lazily, but when more than half of the
  heap is dead the engine compacts it in place, bounding both memory
  and the pop-side cleanup work.

Partitioning: a federation can run one engine per logical process (LP),
each in its own OS process, advanced in safe windows by the pool master
in :mod:`repro.parallel.des` — the conservative parallel-DES scheme
where the only cross-LP edges are :class:`PartitionChannel`\\ s whose
``lookahead_ms`` (a gateway's ``forward_delay_ms``, §6.2) bounds how far
one LP's present can reach into another's future. See
``docs/PARALLEL_DES.md``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError

#: Negative delays no larger than this magnitude are float-arithmetic
#: noise (``schedule_at(now + x) - now`` can land a hair below zero) and
#: are clamped to "now"; anything more negative is a genuine attempt to
#: schedule into the past and still raises.
NEGATIVE_DELAY_EPSILON_MS = 1e-9

#: Compact the heap only past this many dead entries (tiny heaps are
#: cheaper to drain lazily than to rebuild).
_COMPACT_MIN_CANCELLED = 64


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_engine")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: tuple, engine: "Engine"):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once,
        and inert once the event has fired."""
        if not self.cancelled:
            self.cancelled = True
            engine = self._engine
            if engine is not None:
                engine._note_cancel()


class Signal:
    """A one-shot or repeating wakeup that coroutine activities can wait on.

    ``yield signal`` suspends an activity until :meth:`fire` is called; the
    fired value becomes the result of the yield expression.
    """

    __slots__ = ("_engine", "_waiters", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self._engine = engine
        self._waiters: List[Generator] = []
        self.name = name

    def fire(self, value: Any = None) -> int:
        """Wake every activity currently waiting; returns how many woke."""
        waiters, self._waiters = self._waiters, []
        for gen in waiters:
            self._engine._resume(gen, value)
        return len(waiters)

    def _add_waiter(self, gen: Generator) -> None:
        self._waiters.append(gen)


class Engine:
    """A deterministic discrete-event simulation engine: schedule /
    cancel / run over the ``(time, seq, handle)`` heap, plus Signals and
    coroutine activities."""

    def __init__(self) -> None:
        #: Current simulated time in milliseconds. Read-only: only
        #: :meth:`run` advances it.
        self.now = 0.0
        self._seq = 0
        #: heap of ``(time, seq, handle)`` — the tuple prefix keeps all
        #: sift comparisons in C; seq is unique so the handle never
        #: participates in a comparison
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._cancelled = 0       # dead entries still sitting in the heap
        self._running = False
        self._events_fired = 0

    @property
    def events_fired(self) -> int:
        """Total number of events dispatched so far (for diagnostics)."""
        return self._events_fired

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` ms from now."""
        if delay < 0:
            if delay >= -NEGATIVE_DELAY_EPSILON_MS:
                delay = 0.0
            else:
                raise SimulationError(
                    f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = self._seq = self._seq + 1
        handle = EventHandle(time, seq, fn, args, self)
        heappush(self._heap, (time, seq, handle))
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute time ``time``."""
        return self.schedule(time - self.now, fn, *args)

    def schedule_abs(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the *exact* absolute timestamp.

        ``schedule_at`` computes ``now + (time - now)``, which can land
        an ulp away from ``time``; cross-partition injection needs the
        fire time bit-identical to the one the sending LP stamped, so
        channel delivery uses this primitive instead.
        """
        if time < self.now:
            if time < self.now - NEGATIVE_DELAY_EPSILON_MS:
                raise SimulationError(
                    f"cannot schedule into the past (at={time}, now={self.now})")
            time = self.now
        seq = self._seq = self._seq + 1
        handle = EventHandle(time, seq, fn, args, self)
        heappush(self._heap, (time, seq, handle))
        return handle

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the current time, after pending events."""
        return self.schedule(0.0, fn, *args)

    def _note_cancel(self) -> None:
        """One more heap entry went dead; compact when the heap is
        mostly corpses. The compaction mutates the list in place so
        loops holding a reference to it keep seeing live state."""
        count = self._cancelled + 1
        self._cancelled = count
        heap = self._heap
        if count > _COMPACT_MIN_CANCELLED and count * 2 > len(heap):
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapify(heap)
            self._cancelled = 0

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Dispatch events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired. Returns the simulated time afterwards.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        heap = self._heap       # compaction mutates in place; alias is safe
        fired = 0
        try:
            while heap:
                handle = heap[0][2]
                if handle.cancelled:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                time = handle.time
                if until is not None and time > until:
                    break
                heappop(heap)
                self.now = time
                # detached before dispatch, so a late cancel() from
                # whoever holds the handle cannot skew the dead count
                handle._engine = None
                handle.fn(*handle.args)
                self._events_fired += 1
                fired += 1
                if max_events is not None and fired >= max_events:
                    break
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def step(self) -> bool:
        """Dispatch a single event. Returns False if none are pending."""
        fired = self._events_fired
        self.run(max_events=1)
        return self._events_fired != fired

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the heap is empty.

        Cancelled heads are popped lazily, so repeated peeks stay O(1)
        amortised instead of sorting the whole heap on every call.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # signals and coroutine activities
    # ------------------------------------------------------------------
    def signal(self, name: str = "") -> Signal:
        """Create a :class:`Signal` bound to this engine."""
        return Signal(self, name)

    def spawn(self, gen: Generator, delay: float = 0.0) -> EventHandle:
        """Start a coroutine activity after ``delay`` ms.

        The generator may yield:

        * a non-negative float — sleep that many ms;
        * a :class:`Signal` — sleep until it fires (yield evaluates to the
          fired value);
        * ``None`` — yield the processor, resume at the same time.
        """
        return self.schedule(delay, self._resume, gen, None)

    def _resume(self, gen: Generator, value: Any) -> None:
        try:
            yielded = gen.send(value)
        except StopIteration:
            return
        if yielded is None:
            self.call_soon(self._resume, gen, None)
        elif isinstance(yielded, Signal):
            yielded._add_waiter(gen)
        elif isinstance(yielded, (int, float)):
            self.schedule(float(yielded), self._resume, gen, None)
        else:
            raise SimulationError(
                f"activity yielded {yielded!r}; expected delay, Signal, or None"
            )


class PartitionChannel:
    """One directed cross-partition edge with a fixed lookahead.

    The sending LP stamps each message with its absolute fire time
    (``claim time + lookahead_ms``) and appends it to the outbox; whoever
    drives the LPs drains outboxes at every barrier and injects the
    messages into the destination LP at their exact stamped times. A
    message claimed while the source is at time ``t`` fires at
    ``>= t + lookahead_ms``, which is what lets the destination safely
    run ahead of the source by up to the lookahead — so the lookahead
    must be strictly positive, or no LP could ever advance past another.
    """

    __slots__ = ("key", "src", "dst", "lookahead_ms", "outbox", "deliver",
                 "_seq")

    def __init__(self, key: str, src: int, dst: int, lookahead_ms: float,
                 deliver: Optional[Callable[[Any], None]] = None):
        if not lookahead_ms > 0:
            raise SimulationError(
                f"channel {key!r} needs a positive lookahead, "
                f"got {lookahead_ms}")
        self.key = key
        self.src = src              # source LP index
        self.dst = dst              # destination LP index
        self.lookahead_ms = lookahead_ms
        #: (fire_time, channel_seq, payload), in send order
        self.outbox: List[Tuple[float, int, Any]] = []
        #: destination-side sink, bound where the receiving half lives
        self.deliver = deliver
        self._seq = 0

    def send(self, fire_time: float, payload: Any) -> None:
        """Queue ``payload`` to fire at ``fire_time`` on the far side."""
        self._seq += 1
        self.outbox.append((fire_time, self._seq, payload))

    def drain(self) -> List[Tuple[float, int, Any]]:
        """Take every queued message (called at window barriers)."""
        out, self.outbox = self.outbox, []
        return out
