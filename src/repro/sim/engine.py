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

* heap entries are ``(time, seq, handle)`` tuples, so ``heapq`` sifting
  compares floats/ints in C instead of calling ``EventHandle.__lt__``;
* fired and cancelled handles are recycled through a bounded free list
  when the engine can prove (via the CPython reference count) that no
  caller still holds them, so steady-state churn allocates no handles;
* cancelled events are removed lazily, but when more than half of the
  heap is dead the engine compacts it in place, bounding both memory
  and the pop-side cleanup work.

Partitioning: the heap/scheduling internals live in :class:`EngineCore`
(:class:`Engine` adds the Signal/coroutine layer on top), so a
federation can run one core per logical process (LP) and advance them
in lookahead-bounded windows under a :class:`PartitionedEngine` — the
conservative parallel-DES scheme where the only cross-LP edges are
:class:`PartitionChannel`\\ s whose ``lookahead_ms`` (a gateway's
``forward_delay_ms``, §6.2) bounds how far one LP's present can reach
into another's future. See ``docs/PARALLEL_DES.md``.
"""

from __future__ import annotations

import math
import sys
from heapq import heapify, heappop, heappush
from typing import (Any, Callable, Dict, Generator, List, Optional, Tuple,
                    Union)

from repro.errors import SimulationError

#: Negative delays no larger than this magnitude are float-arithmetic
#: noise (``schedule_at(now + x) - now`` can land a hair below zero) and
#: are clamped to "now"; anything more negative is a genuine attempt to
#: schedule into the past and still raises.
NEGATIVE_DELAY_EPSILON_MS = 1e-9

#: Free-list bound: enough to absorb any realistic in-flight burst
#: without letting a pathological run hoard handles forever.
_FREELIST_MAX = 1024

#: Compact the heap only past this many dead entries (tiny heaps are
#: cheaper to drain lazily than to rebuild).
_COMPACT_MIN_CANCELLED = 64

# CPython only; other implementations simply never recycle handles.
_getrefcount = getattr(sys, "getrefcount", None)


class EventHandle:
    """A cancellable reference to a scheduled event.

    Handles are recycled through the engine's free list once the engine
    proves no outside reference remains, so identity comparisons between
    a fired handle and a later one are meaningless — hold the handle if
    you intend to cancel it, and it will never be reused under you.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_engine")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: tuple, engine: Optional["EngineCore"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        if not self.cancelled:
            self.cancelled = True
            engine = self._engine
            if engine is not None:
                engine._note_cancel()

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


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


class EngineCore:
    """The heap/scheduling internals of the engine.

    Everything a logical process needs to advance simulated time:
    schedule / cancel / run / step over the ``(time, seq, handle)``
    heap. :class:`Engine` layers the Signal and coroutine-activity API
    on top; a :class:`PartitionedEngine` drives several cores in
    lookahead-bounded windows.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        #: heap of ``(time, seq, handle)`` — the tuple prefix keeps all
        #: sift comparisons in C; seq is unique so the handle never
        #: participates in a comparison
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._free: List[EventHandle] = []
        self._cancelled = 0       # dead entries still sitting in the heap
        self._running = False
        self._events_fired = 0

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

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
        seq = self._seq + 1
        self._seq = seq
        time = self._now + delay
        free = self._free
        if free:
            handle = free.pop()
            handle.time = time
            handle.seq = seq
            handle.fn = fn
            handle.args = args
            handle.cancelled = False
            handle._engine = self
        else:
            handle = EventHandle(time, seq, fn, args, self)
        heappush(self._heap, (time, seq, handle))
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute time ``time``."""
        return self.schedule(time - self._now, fn, *args)

    def schedule_abs(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the *exact* absolute timestamp.

        ``schedule_at`` computes ``now + (time - now)``, which can land
        an ulp away from ``time``; cross-partition injection needs the
        fire time bit-identical to the one the sending LP stamped, so
        the partition scheduler uses this primitive instead.
        """
        if time < self._now:
            if time < self._now - NEGATIVE_DELAY_EPSILON_MS:
                raise SimulationError(
                    f"cannot schedule into the past (at={time}, now={self._now})")
            time = self._now
        seq = self._seq + 1
        self._seq = seq
        free = self._free
        if free:
            handle = free.pop()
            handle.time = time
            handle.seq = seq
            handle.fn = fn
            handle.args = args
            handle.cancelled = False
            handle._engine = self
        else:
            handle = EventHandle(time, seq, fn, args, self)
        heappush(self._heap, (time, seq, handle))
        return handle

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the current time, after pending events."""
        return self.schedule(0.0, fn, *args)

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
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

    def _recycle(self, handle: EventHandle) -> None:
        """A handle just left the heap. Recycle it if nobody else can
        still see it (three refs: caller's local, our parameter, and
        getrefcount's argument); otherwise detach it from the engine so
        a late ``cancel()`` from whoever holds it cannot skew the
        dead-entry accounting."""
        if (_getrefcount is not None and len(self._free) < _FREELIST_MAX
                and _getrefcount(handle) == 3):
            handle.fn = None
            handle.args = ()
            self._free.append(handle)
        else:
            handle._engine = None

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
        free = self._free
        getrefcount = _getrefcount
        fired = 0
        try:
            while heap:
                handle = heap[0][2]
                if handle.cancelled:
                    heappop(heap)
                    self._cancelled -= 1
                    if (getrefcount is not None and len(free) < _FREELIST_MAX
                            and getrefcount(handle) == 2):
                        handle.fn = None
                        handle.args = ()
                        free.append(handle)
                    continue
                time = handle.time
                if until is not None and time > until:
                    break
                heappop(heap)
                self._now = time
                fn = handle.fn
                args = handle.args
                # Recycle before dispatch: the callback's own schedules
                # can then reuse the handle. Anyone still holding it
                # (refcount > 2) keeps it out of the free list, and is
                # detached instead so a late cancel() stays inert.
                if (getrefcount is not None and len(free) < _FREELIST_MAX
                        and getrefcount(handle) == 2):
                    handle.fn = None
                    handle.args = ()
                    free.append(handle)
                else:
                    handle._engine = None
                fn(*args)
                self._events_fired += 1
                fired += 1
                if max_events is not None and fired >= max_events:
                    break
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def step(self) -> bool:
        """Dispatch a single event. Returns False if none are pending."""
        heap = self._heap
        while heap:
            _time, _seq, handle = heappop(heap)
            if handle.cancelled:
                self._cancelled -= 1
                self._recycle(handle)
                continue
            self._now = handle.time
            fn = handle.fn
            args = handle.args
            self._recycle(handle)
            fn(*args)
            self._events_fired += 1
            return True
        return False

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the heap (O(1): the
        engine tracks how many heap entries are dead)."""
        return len(self._heap) - self._cancelled

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the heap is empty.

        Cancelled heads are popped lazily, so repeated peeks stay O(1)
        amortised instead of sorting the whole heap on every call.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            _time, _seq, handle = heappop(heap)
            self._cancelled -= 1
            self._recycle(handle)
        return heap[0][0] if heap else None


class Engine(EngineCore):
    """A deterministic discrete-event simulation engine.

    :class:`EngineCore` plus the Signal and coroutine-activity layer.
    """

    def signal(self, name: str = "") -> Signal:
        """Create a :class:`Signal` bound to this engine."""
        return Signal(self, name)

    # ------------------------------------------------------------------
    # coroutine activities
    # ------------------------------------------------------------------
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
    (``claim time + lookahead_ms``) and appends it to the outbox; the
    :class:`PartitionedEngine` drains outboxes at every barrier and
    injects the messages into the destination LP at their exact stamped
    times. A message claimed while the source is at time ``t`` fires at
    ``>= t + lookahead_ms``, which is what lets the destination safely
    run ahead of the source by up to the lookahead.

    ``lookahead_ms`` may be zero (e.g. a recorder LP bridged to its
    cluster's medium, where a tap fires at the exact completion time).
    A zero-lookahead channel contributes no static slack, so the
    destination can only outrun the source by what the source's
    *next-event promise* allows — see
    :meth:`PartitionedEngine.earliest_bounds`.

    ``spacing_ms`` is an optional extra promise: any two messages on
    this channel with distinct fire times are at least ``spacing_ms``
    apart. A serialized broadcast medium guarantees exactly this for
    completion-timed taps (consecutive completions differ by at least
    the interpacket gap), which restores usable slack to an otherwise
    zero-lookahead edge. ``last_fire`` tracks the latest drained fire
    time so the scheduler can apply the spacing floor.
    """

    __slots__ = ("key", "src", "dst", "lookahead_ms", "spacing_ms",
                 "last_fire", "outbox", "deliver", "_seq")

    def __init__(self, key: str, src: int, dst: int, lookahead_ms: float,
                 deliver: Optional[Callable[[Any], None]] = None,
                 spacing_ms: float = 0.0):
        if lookahead_ms < 0:
            raise SimulationError(
                f"channel {key!r} needs a non-negative lookahead, "
                f"got {lookahead_ms}")
        if lookahead_ms == 0 and spacing_ms < 0:
            raise SimulationError(
                f"channel {key!r} needs a non-negative spacing, "
                f"got {spacing_ms}")
        self.key = key
        self.src = src              # source LP index
        self.dst = dst              # destination LP index
        self.lookahead_ms = lookahead_ms
        self.spacing_ms = spacing_ms
        self.last_fire = -math.inf
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
        if out:
            last = out[-1][0]
            if last > self.last_fire:
                self.last_fire = last
        return out


class PartitionedEngine:
    """A conservative barrier scheduler over several logical processes.

    Each :class:`EngineCore` is one logical process (LP); the only edges
    between them are :class:`PartitionChannel`\\ s. Every round the
    scheduler computes, per LP, a *safe-advance target* from the
    incoming channels' individual lookaheads plus each source LP's
    next-event promise (see :meth:`earliest_bounds`), runs every LP to
    its own target, then drains every channel's outbox, sorts by
    ``(fire_time, channel key, channel seq)``, and injects the messages
    into the destination cores at the exact stamped fire times. The
    sort makes the injection order a pure function of the message set —
    never of which LP ran first — so an in-process staged pass and a
    process pool produce bit-identical schedules.

    Because targets are promise-based, a quiet federation fast-forwards
    in a handful of barriers instead of ``duration / min(lookahead)``
    fixed windows, and a cluster behind a slow gateway does not
    throttle LPs it has no edge to.
    """

    def __init__(self,
                 engines: Union[List[EngineCore], Dict[int, EngineCore]],
                 channels: List[PartitionChannel]):
        if not engines:
            raise SimulationError("a partitioned engine needs at least one LP")
        if isinstance(engines, dict):
            self.engines: Dict[int, EngineCore] = dict(engines)
        else:
            self.engines = dict(enumerate(engines))
        self.channels = channels
        self._order = sorted(self.engines)
        self._incoming: Dict[int, List[PartitionChannel]] = {
            lp: [] for lp in self.engines}
        for channel in channels:
            if channel.src not in self.engines:
                raise SimulationError(
                    f"channel {channel.key!r} originates at unknown LP "
                    f"{channel.src}")
            if channel.dst not in self.engines:
                raise SimulationError(
                    f"channel {channel.key!r} routes to unknown LP "
                    f"{channel.dst}")
            self._incoming[channel.dst].append(channel)
        self._now = 0.0
        self.barriers = 0
        self.messages_exchanged = 0

    @property
    def now(self) -> float:
        """The last completed target (every LP's clock has reached it)."""
        return self._now

    def earliest_bounds(self) -> Dict[int, float]:
        """Per-LP lower bounds on the next event that can occur there.

        Starting from each LP's own next pending event (and any
        undrained outbox messages headed its way), relax over every
        channel: an event on the destination caused *through* channel
        ``c`` cannot occur before ``bound(src) + lookahead``, nor — when
        the channel promises a spacing — before ``last_fire + spacing``.
        Iterating to the fixed point (Bellman-Ford over non-negative
        edge weights) folds transitive chains, including zero-lookahead
        cycles such as a medium bridged to its recorder LP. The result
        is the null-message-style "no event before T" promise that
        safe-advance targets and the pooled window grants are built on.
        """
        bounds: Dict[int, float] = {}
        for lp in self._order:
            head = self.engines[lp].peek_time()
            bounds[lp] = math.inf if head is None else head
        for channel in self.channels:
            if channel.outbox:
                first = channel.outbox[0][0]
                if first < bounds[channel.dst]:
                    bounds[channel.dst] = first
        for _ in range(len(self._order)):
            changed = False
            for channel in self.channels:
                bound = bounds[channel.src] + channel.lookahead_ms
                if channel.spacing_ms > 0.0:
                    floor = channel.last_fire + channel.spacing_ms
                    if floor > bound:
                        bound = floor
                if bound < bounds[channel.dst]:
                    bounds[channel.dst] = bound
                    changed = True
            if not changed:
                break
        return bounds

    def _target_for(self, lp: int, bounds: Dict[int, float],
                    until: float) -> float:
        engine = self.engines[lp]
        target = until
        for channel in self._incoming[lp]:
            bound = bounds[channel.src] + channel.lookahead_ms
            if channel.spacing_ms > 0.0:
                floor = channel.last_fire + channel.spacing_ms
                if floor > bound:
                    bound = floor
            if bound < target:
                target = bound
        if target < engine.now:
            target = engine.now
        return target

    def run(self, until: float) -> float:
        """Advance every LP to ``until`` behind promise-based barriers."""
        if until < self._now:
            raise SimulationError(
                f"cannot run backwards (until={until}, now={self._now})")
        if not self.channels:
            # No cross-LP edges: the LPs are independent simulations.
            for lp in self._order:
                self.engines[lp].run(until=until)
            self._now = until
            return self._now
        while True:
            bounds = self.earliest_bounds()
            for lp in self._order:
                self.engines[lp].run(
                    until=self._target_for(lp, bounds, until))
            moved = self._exchange()
            self.barriers += 1
            if moved:
                continue
            if all(engine.now >= until and
                   (engine.peek_time() is None
                    or engine.peek_time() > until)
                   for engine in self.engines.values()):
                break
        self._now = until
        return self._now

    def _exchange(self) -> int:
        """Drain every outbox and inject at exact stamped times."""
        pending: List[Tuple[float, str, int, PartitionChannel, Any]] = []
        for channel in self.channels:
            for fire_time, seq, payload in channel.drain():
                pending.append((fire_time, channel.key, seq, channel, payload))
        if not pending:
            return 0
        pending.sort(key=lambda item: (item[0], item[1], item[2]))
        for fire_time, _key, _seq, channel, payload in pending:
            self.engines[channel.dst].schedule_abs(
                fire_time, channel.deliver, payload)
        self.messages_exchanged += len(pending)
        return len(pending)


def run_simulation(setup: Callable[[Engine], Any], until: float) -> Tuple[Engine, Any]:
    """Convenience wrapper: build an engine, run ``setup``, run to ``until``.

    Returns ``(engine, setup_result)`` so tests can assert on the objects
    the setup function created.
    """
    engine = Engine()
    result = setup(engine)
    engine.run(until=until)
    return engine, result
