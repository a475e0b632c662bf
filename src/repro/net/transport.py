"""The transport layer (§4.3.3).

Provides, per node:

* **unguaranteed** messages — fire and forget (routing/statistics);
* **guaranteed** messages — end-to-end acknowledged, retransmitted until
  acknowledged;
* **duplicate suppression** — every message carries a unique identifier
  (sending process uid + per-process sequence number) checked against a
  cache of recently received identifiers;
* **in-order delivery** — "message ordering between processors is
  currently preserved by allowing only one unacknowledged message to be
  in transit from each processor", modelled literally with a window of 1
  (a wider window is the windowing scheme the thesis anticipates);
* the publishing rule — a received data frame lacking the recorder's
  acknowledgement is discarded "exactly as if it had received a bad
  packet" and is later re-sent by the sender (§6.1.1).

On media that provide hardware delivery acknowledgement (the
Acknowledging Ethernet's reserved slot, the ring's ack field, the star
hub) the medium ack doubles as the end-to-end ack — the LAN is a single
hop. On the plain CSMA/CD Ethernet, explicit ACK frames are sent and
contend for the bus.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import NetworkError
from repro.net.frames import BROADCAST, Frame, FrameKind, register_payload
from repro.net.media import Medium, NetworkInterface
from repro.obs import MetricsRegistry, Observability
from repro.sim.engine import Engine, EventHandle

#: Guaranteed-message uids a receiver remembers for duplicate
#: suppression, oldest forgotten first: the dedup horizon.
DEDUP_HORIZON = 4096
#: Bytes the transport adds to a message body, and the size of an
#: end-to-end acknowledgement frame.
HEADER_BYTES = 32
ACK_BYTES = 32


@register_payload("seg")
class Segment(NamedTuple):
    """The transport payload carried inside a frame: one per message
    sent, read at every hop, so a ``NamedTuple`` (built in C, immutable).
    On the wire it is ``@seg;`` and its six fields in this order."""

    uid: Tuple            # network-unique message identifier
    src_node: int
    dst_node: int
    body: Any
    guaranteed: bool = True
    #: per (src, dst) stream sequence number; lets a windowed receiver
    #: reorder concurrent in-flight messages (the §4.3.3 "windowing
    #: scheme that will continue to preserve message ordering")
    stream_seq: Optional[int] = None


def guaranteed_body(frame: Frame, of) -> Optional[Any]:
    """The body of the guaranteed segment a data frame carries when it
    is an instance of ``of`` (a class or a tuple of classes), else None.
    The one place a frame is opened to ask "does this carry a published
    message?" — the caller passes ``Message``, which lives a layer up."""
    segment = frame.payload
    if (frame.kind is FrameKind.DATA and isinstance(segment, Segment)
            and segment.guaranteed and isinstance(segment.body, of)):
        return segment.body
    return None


@dataclass
class TransportConfig:
    """Tunables for one node's transport layer."""

    retransmit_timeout_ms: float = 100.0
    #: adaptive retransmission (§4.3.3's "network failures are
    #: temporary"): each unacknowledged retry waits
    #: ``timeout * backoff_factor**(attempt-1)`` ms, capped at
    #: ``backoff_max_ms``, so a long outage (a rebooting node, a crashed
    #: recorder) is probed at a decaying rate instead of a fixed drumbeat.
    #: A factor of 1.0 restores the fixed timer.
    backoff_factor: float = 2.0
    backoff_max_ms: float = 2000.0
    max_retries: int = 1000
    #: With window > 1 the sender stamps each guaranteed segment with a
    #: per-destination stream sequence and the receiver buffers
    #: out-of-order arrivals, releasing them in order — the windowing
    #: scheme §4.3.3 anticipates. Keeps in-order delivery while allowing
    #: `window` messages in flight concurrently. Every stamped segment
    #: the receiver acknowledges consumes its sequence number — a
    #: suppressed duplicate too (a recovering process regenerates a send
    #: under its old uid but a fresh number), or the stream would wait on
    #: that number for ever.
    window: int = 1
    #: Guaranteed messages wait in *lanes*: a FIFO plus the count of its
    #: messages in flight, at most `window` of them. A transport has one
    #: lane; with per_destination=True it has one per destination node,
    #: so the window — and in-order delivery, at window 1 — holds per
    #: destination instead of globally. The recorder uses this so a
    #: recreate bound for a still-rebooting node does not
    #: head-of-line-block replay streams to healthy nodes.
    per_destination: bool = False
    require_recorder_ack: bool = False


class TransportStats:
    """One node's transport counters, registered as ``transport.<node>.*``.

    Each attribute is the :class:`~repro.obs.Counter` itself
    (``stats.sent.inc()``, ``stats.sent.value``); ``registry.snapshot()``
    reports the same objects.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self.sent = registry.counter(f"{prefix}.sent")
        self.delivered_up = registry.counter(f"{prefix}.delivered_up")
        self.retransmissions = registry.counter(f"{prefix}.retransmissions")
        self.duplicates_suppressed = registry.counter(
            f"{prefix}.duplicates_suppressed")
        self.dropped_bad_checksum = registry.counter(
            f"{prefix}.dropped_bad_checksum")
        self.dropped_no_recorder_ack = registry.counter(
            f"{prefix}.dropped_no_recorder_ack")
        self.acks_sent = registry.counter(f"{prefix}.acks_sent")
        self.gave_up = registry.counter(f"{prefix}.gave_up")


class _Lane:
    """One FIFO of guaranteed messages waiting to start, and how many
    of its messages are in flight (``busy``, at most ``window``)."""

    __slots__ = ("queue", "busy")

    def __init__(self) -> None:
        self.queue: "deque[_Outstanding]" = deque()
        self.busy = 0


class _Outstanding:
    """A guaranteed message awaiting acknowledgement.

    ``stamp`` identifies the message's *latest* retry arming: the
    coalesced timer wheel leaves superseded heap entries in place and
    recognises them as stale because their tick no longer matches.
    ``lane`` is where it queued, and whose slot it holds once started.
    """

    __slots__ = ("segment", "size_bytes", "lane", "attempts", "stamp")

    def __init__(self, segment: Segment, size_bytes: int, lane: _Lane):
        self.segment = segment
        self.size_bytes = size_bytes
        self.lane = lane
        self.attempts = 0
        self.stamp = 0


class Transport:
    """One node's transport endpoint."""

    def __init__(self, engine: Engine, medium: Medium, node_id: int,
                 on_receive: Callable[[Segment], None],
                 config: Optional[TransportConfig] = None,
                 is_recorder: bool = False,
                 tap: Optional[Callable[[Frame], None]] = None,
                 obs: Optional[Observability] = None):
        self.engine = engine
        self.medium = medium
        self.node_id = node_id
        self.on_receive = on_receive
        self.config = config or TransportConfig()
        #: called with every checksum-valid frame this interface hears,
        #: before destination filtering — the recorder's passive listener
        self.tap = tap
        #: dead-letter hook: called with ``(segment, attempts)`` when a
        #: guaranteed message exhausts ``max_retries`` — graceful
        #: degradation instead of a silent drop
        self.on_gave_up: Optional[Callable[[Segment, int], None]] = None
        #: instrumentation rides the medium's spine unless given its own
        self.obs = obs if obs is not None else medium.obs
        prefix = f"transport.{node_id}"
        self.events = self.obs.scope(prefix)
        self.stats = TransportStats(self.obs.registry, prefix)
        self._queue_depth = self.obs.registry.timeavg(f"{prefix}.queue_depth")
        self._backoff_ms = self.obs.registry.histogram(f"{prefix}.backoff_ms")
        #: the one lane, or None when every destination has its own
        self._lane: Optional[_Lane] = (None if self.config.per_destination
                                       else _Lane())
        self._lanes: Dict[int, _Lane] = {}
        self._queued = 0          # messages waiting in lanes, all told
        self._in_flight: Dict[Tuple, _Outstanding] = {}
        #: coalesced retransmission timer wheel: all retry deadlines live
        #: in this local heap of ``(deadline, tick, out)`` and a single
        #: engine event (``_wheel``) covers the earliest of them, instead
        #: of one engine timer per in-flight message. Entries are never
        #: removed eagerly — acks and re-arms leave stale entries behind,
        #: recognised on pop because the message left ``_in_flight`` or
        #: its ``stamp`` moved on.
        self._timers: List[Tuple[float, int, _Outstanding]] = []
        self._timer_tick = 0
        self._wheel: Optional[EventHandle] = None
        self._wheel_deadline = 0.0
        self._dedup: "OrderedDict[Tuple, None]" = OrderedDict()
        #: sender side: next stream sequence per destination node
        self._next_stream_seq: Dict[int, int] = {}
        #: receiver side: next expected stream seq and held-out-of-order
        #: segments, per source node
        self._expected_seq: Dict[int, int] = {}
        self._reorder: Dict[int, Dict[int, Optional[Segment]]] = {}
        self.iface = NetworkInterface(node_id, self._on_frame,
                                      is_recorder=is_recorder,
                                      on_delivered=self._on_media_ack)
        medium.attach(self.iface)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, dst_node: int, body: Any, size_bytes: int, uid: Tuple,
             guaranteed: bool = True) -> None:
        """Queue a message for the destination node.

        ``size_bytes`` is the body size; the transport adds its header.
        """
        if guaranteed and dst_node == BROADCAST:
            raise NetworkError("guaranteed messages must be unicast")
        stream_seq = None
        if guaranteed and self.config.window > 1:
            stream_seq = self._next_stream_seq.get(dst_node, 0)
            self._next_stream_seq[dst_node] = stream_seq + 1
        segment = Segment(uid, self.node_id, dst_node, body, guaranteed,
                          stream_seq)
        total = size_bytes + HEADER_BYTES
        if not guaranteed:
            self.stats.sent.inc()
            self.iface.send(self._frame_for(segment, total))
            return
        lane = self._lane
        if lane is None:
            lane = self._lanes.get(dst_node)
            if lane is None:
                lane = self._lanes[dst_node] = _Lane()
        lane.queue.append(_Outstanding(segment, total, lane))
        self._queued += 1
        self._queue_depth.update(self._queued + len(self._in_flight))
        self._pump(lane)

    def _frame_for(self, segment: Segment, size_bytes: int) -> Frame:
        return Frame(kind=FrameKind.DATA, src_node=self.node_id,
                     dst_node=segment.dst_node, payload=segment,
                     size_bytes=size_bytes)

    def _pump(self, lane: _Lane) -> None:
        """Start the lane's queued messages, in order, while it has a
        free slot. Every state change fills or frees one lane — a send
        queues on one, an ack or a dead letter frees a slot of one — and
        a pumped lane is left empty or full, so no other lane ever has
        anything to start."""
        queue = lane.queue
        in_flight = self._in_flight
        window = self.config.window
        while queue and lane.busy < window:
            out = queue.popleft()
            self._queued -= 1
            uid = out.segment.uid
            superseded = in_flight.get(uid)
            if superseded is not None:
                # A regenerated send of a uid still awaiting its ack
                # takes over the entry: the ack will complete `out`, so
                # the message it replaces gives its slot back.
                superseded.lane.busy -= 1
            in_flight[uid] = out
            lane.busy += 1
            self._transmit(out)
            if superseded is not None and superseded.lane is not lane:
                self._pump(superseded.lane)

    def _retry_delay_ms(self, attempts: int) -> float:
        """The wait before declaring attempt ``attempts`` unacknowledged:
        exponential backoff with a cap."""
        cfg = self.config
        delay = cfg.retransmit_timeout_ms
        if cfg.backoff_factor > 1.0 and attempts > 1:
            delay = min(cfg.backoff_max_ms,
                        delay * cfg.backoff_factor ** (attempts - 1))
        self._backoff_ms.observe(delay)
        return delay

    def _arm_retry(self, out: _Outstanding) -> None:
        """(Re)arm the retry deadline for ``out`` on the timer wheel."""
        deadline = self.engine.now + self._retry_delay_ms(out.attempts)
        tick = self._timer_tick + 1
        self._timer_tick = tick
        out.stamp = tick
        heappush(self._timers, (deadline, tick, out))
        self._rearm_wheel()

    def _entry_live(self, entry: Tuple[float, int, _Outstanding]) -> bool:
        """Is this wheel entry still the current deadline for a message
        that is still awaiting acknowledgement?"""
        out = entry[2]
        return (self._in_flight.get(out.segment.uid) is out
                and out.stamp == entry[1])

    def _rearm_wheel(self) -> None:
        """Point the single engine timer at the earliest live deadline
        (pruning stale heap heads), or cancel it if none remain."""
        timers = self._timers
        while timers and not self._entry_live(timers[0]):
            heappop(timers)
        if not timers:
            if self._wheel is not None:
                self._wheel.cancel()
                self._wheel = None
            return
        earliest = timers[0][0]
        if self._wheel is not None:
            if self._wheel_deadline <= earliest:
                return
            self._wheel.cancel()
        self._wheel = self.engine.schedule(earliest - self.engine.now,
                                           self._on_wheel)
        self._wheel_deadline = earliest

    def _on_wheel(self) -> None:
        """The wheel fired: time out every message whose deadline is due,
        in arming order, then re-aim at the next deadline."""
        self._wheel = None
        timers = self._timers
        now = self.engine.now
        due: List[_Outstanding] = []
        while timers and timers[0][0] <= now:
            entry = heappop(timers)
            if self._entry_live(entry):
                due.append(entry[2])
        for out in due:
            # Re-check: an earlier timeout in this batch can give up and
            # pump fresh sends, but never silently complete this one —
            # still, only act on messages that remain in flight.
            if self._in_flight.get(out.segment.uid) is out:
                self._on_timeout(out)
        self._rearm_wheel()

    def _transmit(self, out: _Outstanding) -> None:
        if not self.iface.up:
            # Interface down between timeout and retransmit (a transient
            # NIC outage, a detaching spare): keep the retry timer alive
            # so the message leaves `_in_flight` by delivery or by
            # exhausting max_retries — never by wedging forever. The
            # skipped transmission still consumes an attempt, so a
            # permanently dead interface ends in the dead-letter hook.
            out.attempts += 1
            self._arm_retry(out)
            return
        out.attempts += 1
        if out.attempts > 1:
            self.stats.retransmissions.inc()
        self.stats.sent.inc()
        self.iface.send(self._frame_for(out.segment, out.size_bytes))
        self._arm_retry(out)

    def _on_timeout(self, out: _Outstanding) -> None:
        if out.segment.uid not in self._in_flight:
            return
        if out.attempts >= self.config.max_retries:
            # Give up; guaranteed delivery holds only for temporary
            # failures, which max_retries bounds for simulation hygiene.
            # The dead letter goes to `on_gave_up` instead of vanishing.
            del self._in_flight[out.segment.uid]
            out.lane.busy -= 1
            self._queue_depth.update(self.queue_depth)
            self.stats.gave_up.inc()
            self.events.emit("gave_up", f"node{self.node_id}",
                             dst=out.segment.dst_node,
                             attempts=out.attempts)
            if self.on_gave_up is not None:
                self.on_gave_up(out.segment, out.attempts)
            self._pump(out.lane)
            return
        self.events.emit("retransmit", f"node{self.node_id}",
                         dst=out.segment.dst_node, attempt=out.attempts)
        self._transmit(out)

    def _complete(self, uid: Tuple) -> None:
        out = self._in_flight.pop(uid, None)
        if out is None:
            return
        out.lane.busy -= 1
        self._queue_depth.update(self.queue_depth)
        self._pump(out.lane)
        # The acked message's wheel entry is now stale; re-aiming prunes
        # it when it is the head, so a drained transport stops waking up.
        self._rearm_wheel()

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        # Link layer: discard frames with bad checksums.
        if not frame.checksum_ok():
            self.stats.dropped_bad_checksum.inc()
            return
        if self.tap is not None:
            self.tap(frame)
        if frame.kind is FrameKind.ACK:
            tag, uid = frame.payload
            if tag == "e2e-ack":
                self._complete(uid)
            return
        if frame.kind is not FrameKind.DATA:
            return
        segment: Segment = frame.payload
        if segment.dst_node not in (self.node_id, BROADCAST):
            return
        if (self.config.require_recorder_ack and not frame.recorder_acked
                and not self.iface.is_recorder):
            self.stats.dropped_no_recorder_ack.inc()
            return
        if segment.guaranteed:
            if segment.uid in self._dedup:
                self.stats.duplicates_suppressed.inc()
                self._ack(segment)     # re-ack: the first ack may have died
                if segment.stream_seq is not None:
                    self._deliver_in_stream_order(segment, suppressed=True)
                return
            self._remember(segment.uid)
            if segment.src_node == self.node_id:
                # Published intranode message looping back: complete the
                # pending send directly rather than acking ourselves.
                self._complete(segment.uid)
            else:
                self._ack(segment)
            if segment.stream_seq is not None:
                self._deliver_in_stream_order(segment)
                return
        self.stats.delivered_up.inc()
        self.on_receive(segment)

    def _deliver_in_stream_order(self, segment: Segment,
                                 suppressed: bool = False) -> None:
        """Windowed mode: hold out-of-order arrivals and release runs
        in stream-sequence order per source node.

        A ``suppressed`` duplicate is never delivered, but it was
        acknowledged, so the sender will not fill its sequence number
        again: a number neither passed nor held is marked consumed (a
        plain retransmission carries its original number, which is one
        or the other, and changes nothing)."""
        src = segment.src_node
        expected = self._expected_seq.get(src, 0)
        if segment.stream_seq < expected:
            return          # stale duplicate beyond the dedup horizon
        held = self._reorder.setdefault(src, {})
        if suppressed:
            held.setdefault(segment.stream_seq, None)
        else:
            held[segment.stream_seq] = segment
        while expected in held:
            ready = held.pop(expected)
            expected += 1
            if ready is not None:
                self.stats.delivered_up.inc()
                self.on_receive(ready)
        self._expected_seq[src] = expected

    def _remember(self, uid: Tuple) -> None:
        self._dedup[uid] = None
        while len(self._dedup) > DEDUP_HORIZON:
            self._dedup.popitem(last=False)

    def _ack(self, segment: Segment) -> None:
        """Send the end-to-end acknowledgement, unless the medium's
        hardware acknowledgement already serves as it."""
        if self.medium.provides_delivery_ack:
            return
        if segment.src_node == self.node_id:
            return
        self.stats.acks_sent.inc()
        ack = Frame(kind=FrameKind.ACK, src_node=self.node_id,
                    dst_node=segment.src_node,
                    payload=("e2e-ack", segment.uid),
                    size_bytes=ACK_BYTES)
        self.iface.send(ack)

    def _on_media_ack(self, frame: Frame, ok: bool) -> None:
        """Hardware delivery acknowledgement from the medium."""
        if frame.kind is not FrameKind.DATA:
            return
        segment: Segment = frame.payload
        if not segment.guaranteed:
            return
        out = self._in_flight.get(segment.uid)
        if out is None:
            return
        if ok:
            self._complete(segment.uid)
        else:
            # Recorder missed it (or receiver down): schedule the
            # retransmission — "the blocking and resending continues
            # until the recorder successfully records the message"
            # (§4.4.1). The full timeout is used so the retry budget
            # spans realistic outages (a node reboot, a recorder
            # restart) rather than burning out in seconds. Re-arming
            # bumps the stamp, so the superseded wheel entry goes stale.
            self._arm_retry(out)

    # ------------------------------------------------------------------
    # crash / restart support
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Drop all volatile transport state and detach from the medium."""
        self.iface.up = False
        self._timers.clear()
        if self._wheel is not None:
            self._wheel.cancel()
            self._wheel = None
        self._in_flight.clear()
        self._lanes.clear()
        if self._lane is not None:
            self._lane = _Lane()
        self._queued = 0
        self._dedup.clear()
        self._next_stream_seq.clear()
        self._expected_seq.clear()
        self._reorder.clear()
        self._queue_depth.update(0)
        self.events.emit("crash", f"node{self.node_id}")

    def restart(self) -> None:
        """Come back up with empty queues (volatile state was lost)."""
        self.iface.up = True
        self.events.emit("restart", f"node{self.node_id}")

    @property
    def queue_depth(self) -> int:
        """Messages queued or in flight (diagnostics)."""
        return self._queued + len(self._in_flight)
