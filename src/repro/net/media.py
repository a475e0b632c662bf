"""Media layer: the medium interface, the publishing rule and a perfect bus.

"The lowest layer in the network is the media layer. The media layer
creates an abstract network device for the rest of the system" (§4.3.3).

Every medium serializes its frames, so all listeners observe the **same
total order**, and a passive **recorder** interface overhears each one.
What publishing adds is one rule (§4.4.1, §6.1; all recorders, §6.3): a
station may use a data frame only if the recorders stored it. The rule
lives here, in :class:`Medium`, as the steps ``_record_frame`` /
``_withhold`` / ``_takes`` / ``_hand`` / ``_settle``; a medium model
calls them at its own instants — the reserved slot, the ring's
acknowledge field, the hub's forward-after-store — and does nothing
else to a station, a frame or a delivery counter.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro import costs
from repro.errors import NetworkError
from repro.net.faults import FaultPlan
from repro.net.frames import BROADCAST, Frame, FrameKind
from repro.obs import MetricsRegistry, Observability
from repro.sim.engine import Engine

#: Frame-size histogram bucket bounds (bytes).
FRAME_SIZE_BUCKETS = (64, 128, 256, 512, 1024, 4096)
_ATTACH_ORDER = attrgetter("attach_order")


class MediumStats:
    """The medium's counters, registered as ``media.<kind>.*``.

    Each attribute is the :class:`~repro.obs.Counter` itself: the medium
    writes ``stats.collisions.inc()``, readers take
    ``stats.collisions.value``, and ``registry.snapshot()`` reports the
    same objects.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self.frames_offered = registry.counter(f"{prefix}.frames_offered")
        self.frames_delivered = registry.counter(f"{prefix}.frames_delivered")
        self.bytes_delivered = registry.counter(f"{prefix}.bytes_delivered")
        self.collisions = registry.counter(f"{prefix}.collisions")
        self.recorder_misses = registry.counter(f"{prefix}.recorder_misses")
        self.recorder_copies_missed = registry.counter(
            f"{prefix}.recorder_copies_missed")
        self.busy_time_ms = registry.counter(f"{prefix}.busy_time_ms")
        self.frame_bytes = registry.histogram(f"{prefix}.frame_bytes",
                                              buckets=FRAME_SIZE_BUCKETS)

    def note_offered(self, size_bytes: int) -> None:
        """Count one offered frame and record its size."""
        self.frames_offered.inc()
        self.frame_bytes.observe(size_bytes)

    def utilization(self, elapsed_ms: float) -> float:
        """Fraction of elapsed time the medium was carrying bits."""
        if elapsed_ms <= 0:
            return 0.0
        return min(1.0, self.busy_time_ms.value / elapsed_ms)


class NetworkInterface:
    """One station's attachment point.

    ``on_frame(frame)`` is invoked for every frame this station should
    see: frames addressed to it, broadcast frames, and — for recorder
    interfaces — every frame on the medium. ``on_delivered(frame, ok)``
    tells a *sender* whether the medium-level delivery succeeded, for
    media that provide hardware acknowledgement.
    """

    def __init__(self, node_id: int, on_frame: Callable[[Frame], None],
                 is_recorder: bool = False,
                 on_delivered: Optional[Callable[[Frame, bool], None]] = None,
                 accept_extra: Optional[Callable[[int], bool]] = None):
        self.node_id = node_id
        self.on_frame = on_frame
        self.is_recorder = is_recorder
        self.on_delivered = on_delivered
        self.medium: Optional["Medium"] = None
        self.accept_extra = accept_extra
        #: recorder-only: invoked when the medium observes a data frame
        #: being successfully received by its destination — the §4.4.1
        #: "tracing the acknowledgements" channel that tells the recorder
        #: the true reception order at the nodes
        self.on_delivery = None
        self.up = True
        self.attach_order = 0       # position on the medium, set by attach

    @property
    def accept_extra(self) -> Optional[Callable[[int], bool]]:
        """Extra destinations this station claims (gateways, §6.2).
        The medium reads it once, at ``attach``, so it can be set only
        while the station is off the medium."""
        return self._accept_extra

    @accept_extra.setter
    def accept_extra(self, claims: Optional[Callable[[int], bool]]) -> None:
        if self.medium is not None:
            raise NetworkError(
                f"station {self.node_id} is attached: accept_extra is read "
                "at attach and a later assignment would be ignored")
        self._accept_extra = claims

    def send(self, frame: Frame) -> None:
        """Hand a frame to the attached medium for transmission."""
        if self.medium is None:
            raise NetworkError(f"interface {self.node_id} is not attached")
        self.medium.transmit(self, frame)


class Medium:
    """Base class for all medium models."""

    #: True if the medium itself confirms delivery to the sender
    #: (hardware ack), so the transport needs no explicit ACK frames.
    provides_delivery_ack = False

    #: short name used for the medium's scope: ``media.<kind>``
    kind = "medium"

    def __init__(self, engine: Engine,
                 faults: Optional[FaultPlan] = None,
                 obs: Optional[Observability] = None):
        self.engine = engine
        self.faults = faults or FaultPlan()
        self.interfaces: List[NetworkInterface] = []
        #: what the per-frame paths read instead of scanning the bus,
        #: kept by attach/detach: every interface by its (unique) node
        #: id, the recorders, the claimers of other ids (gateways, §6.2)
        self._stations: Dict[int, NetworkInterface] = {}
        self._recorder_ifaces: List[NetworkInterface] = []
        self._claimers: List[NetworkInterface] = []
        #: epidemic repair wiring (publishing.gossip). ``gossip_backup``
        #: makes a recorder miss tolerable — receivers keep the frame
        #: and the hole is repaired by pull rounds instead of sender
        #: retransmission. ``gossip_tap`` feeds the per-node buffers.
        #: ``recorder_loss`` is the seed-pure reception-loss hook.
        self.gossip_backup = False
        self.gossip_tap: Optional[Callable[[Frame], None]] = None
        self.recorder_loss: Optional[Callable[[Frame], bool]] = None
        self.obs = obs or Observability(lambda: engine.now)
        self.events = self.obs.scope(f"media.{self.kind}")
        self.stats = MediumStats(self.obs.registry, f"media.{self.kind}")
        # Fault totals belong in the same registry as the medium's own
        # figures, so `metrics` snapshots include injected faults.
        self.faults.bind(self.obs.registry)
        # Bound once: a deferred delivery is scheduled per frame.
        self._deliver_cb = self._deliver_to_receivers

    # ------------------------------------------------------------------
    def attach(self, iface: NetworkInterface) -> NetworkInterface:
        """Attach a station; returns the interface for chaining. A node
        id is attached once (a spare takes it over after the failed
        station is detached), which is what lets a frame look its
        station up; whether the station claims other destinations
        (``accept_extra``) is read here, not per frame."""
        if iface.node_id in self._stations:
            raise NetworkError(f"node id {iface.node_id} already attached")
        iface.medium = self
        iface.attach_order = (self.interfaces[-1].attach_order + 1
                              if self.interfaces else 0)
        self.interfaces.append(iface)
        self._stations[iface.node_id] = iface
        if iface.is_recorder:
            self._recorder_ifaces.append(iface)
        if iface.accept_extra is not None:
            self._claimers.append(iface)
        return iface

    def detach(self, iface: NetworkInterface) -> None:
        """Remove a station (a failed processor being replaced by a
        spare that assumes its identity, §3.3.3/§4.6)."""
        if self._stations.get(iface.node_id) is iface:
            del self._stations[iface.node_id]
            for held in (self.interfaces, self._recorder_ifaces,
                         self._claimers):
                if iface in held:
                    held.remove(iface)
            iface.medium = None
            iface.up = False

    def transmit(self, iface: NetworkInterface, frame: Frame) -> None:
        """Queue a frame for transmission. Subclasses implement timing."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def tx_time_ms(self, size_bytes: int) -> float:
        """Time the frame occupies the wire, plus the interpacket gap
        (Figure 5.2's Ethernet)."""
        return (size_bytes * 8.0 / costs.BANDWIDTH_BPS * 1000.0
                + costs.INTERPACKET_DELAY_MS)

    # ------------------------------------------------------------------
    def _record_frame(self, frame: Frame) -> Optional[bool]:
        """Offer the frame to every healthy recorder.

        Returns True only if **every** healthy recorder stored the frame
        — §6.3: "each message must have an acknowledge from all recorders
        before it can be used", with a failed recorder's acknowledgement
        supplied by the survivors. With all recorders down, nothing can
        be stored and guaranteed traffic stalls until one returns
        (§3.3.4). None, not False, means the ``recorder_loss`` hook
        dropped the frame before any recorder interface heard it.

        A crashed recorder's missing copy is never silent: each one is
        counted (``recorder_copies_missed``) and, when survivors supply
        the acknowledgement anyway, surfaced as a ``recorder_copy_missed``
        event — that log hole is exactly what the gossip repair path
        must fill when the recorder restarts.
        """
        if (frame.kind is FrameKind.DATA and self.recorder_loss is not None
                and self.recorder_loss(frame)):
            # Injected reception loss: the frame never reached any
            # recorder interface, and the delivery observation (§4.4.1)
            # for this frame is suppressed with it.
            return None
        any_healthy = False
        stored_by_all = True
        copies_missed = 0
        for rec in self._recorder_ifaces:
            if not rec.up:
                copies_missed += 1
                continue
            any_healthy = True
            seen = self.faults.apply(frame, rec.node_id)
            if seen is not None and seen.checksum_ok():
                rec.on_frame(seen)
            else:
                stored_by_all = False
        if copies_missed and frame.kind is FrameKind.DATA:
            self.stats.recorder_copies_missed.inc(copies_missed)
            if any_healthy and stored_by_all:
                # Survivors ack on the crashed recorder's behalf (§6.3);
                # flag the hole instead of silently counting it stored.
                self.events.emit("recorder_copy_missed",
                                 f"node{frame.src_node}",
                                 dst=frame.dst_node, copies=copies_missed)
        return any_healthy and stored_by_all

    def _withhold(self, frame: Frame, recorder_ok: bool) -> bool:
        """The miss policy, decided and counted once per frame: must the
        stations be kept from reading a data frame the recorders did not
        store? Withheld whenever a recorder is attached — the sender
        re-sends it — unless ``gossip_backup`` tolerates the miss (see
        ``__init__``). A data frame that goes ahead also feeds the
        gossip buffers (the broadcast *is* the push phase)."""
        if frame.kind is not FrameKind.DATA:
            return False
        if not recorder_ok:
            if self.gossip_backup:
                self.stats.recorder_misses.inc()
                self.events.emit("recorder_miss", f"node{frame.src_node}",
                                 dst=frame.dst_node, bytes=frame.size_bytes,
                                 tolerated=True)
            else:
                self.stats.recorder_misses.inc()
                self.events.emit("recorder_miss", f"node{frame.src_node}",
                                 dst=frame.dst_node, bytes=frame.size_bytes)
                return True
        if self.gossip_tap is not None:
            self.gossip_tap(frame)
        return False

    def _candidates(self, frame: Frame):
        """The stations worth asking :meth:`_takes`, in attach order: a
        broadcast walks the bus, a unicast frame only its own station
        and the claimers."""
        if frame.dst_node == BROADCAST:
            return self.interfaces
        station = self._stations.get(frame.dst_node)
        if station is None or station.accept_extra is not None:
            return self._claimers
        if not self._claimers:
            return (station,)
        return sorted(self._claimers + [station], key=_ATTACH_ORDER)

    def _takes(self, iface: NetworkInterface, frame: Frame) -> bool:
        """May this station read the frame: it is up, not a recorder,
        and the frame is addressed to it, to a destination it claims
        (gateways, §6.2), or to everyone by someone else. A node
        receives its own transmission when it addresses itself —
        published intranode messages travel the wire and come back
        (§4.4.1) — but never its own true broadcasts."""
        if iface.is_recorder or not iface.up:
            return False
        dst = frame.dst_node
        if dst == BROADCAST:
            return iface.node_id != frame.src_node
        return iface.node_id == dst or (iface.accept_extra is not None
                                        and iface.accept_extra(dst))

    def _hand(self, iface: NetworkInterface, frame: Frame,
              heard: bool = True) -> bool:
        """Give one station its copy — what the fault plan leaves of it.
        True only for a copy that passes its checksum, which is also the
        moment the recorders learn the reception order (§4.4.1) — unless
        no recorder ``heard`` the frame."""
        seen = self.faults.apply(frame, iface.node_id)
        if seen is None:
            return False
        iface.on_frame(seen)
        if not seen.checksum_ok():
            return False
        if heard:
            self._notify_recorders_of_delivery(frame)
        return True

    def _addressed_to_recorder(self, frame: Frame) -> bool:
        """Traffic for a recorder node itself (checkpoints, notices) is
        handed over during recording, not by :meth:`_hand`."""
        station = self._stations.get(frame.dst_node)
        return station is not None and station.is_recorder and station.up

    def _settle(self, frame: Frame, delivered: bool, recorder_ok: bool) -> None:
        """Close the frame's account: count it delivered if some copy
        arrived intact (or the recorder it was addressed to stored it)
        and tell its sender."""
        if not delivered and recorder_ok:
            delivered = self._addressed_to_recorder(frame)
        if delivered:
            self.stats.frames_delivered.inc()
            self.stats.bytes_delivered.inc(frame.size_bytes)
        self._notify_sender(frame, delivered)

    def _deliver_to_receivers(self, frame: Frame, recorder_ok: bool,
                              heard: bool = True) -> None:
        """The steps above for a medium whose stations all see the frame
        at one instant."""
        delivered = False
        if not self._withhold(frame, recorder_ok):
            for iface in self._candidates(frame):
                if self._takes(iface, frame) and self._hand(
                        iface, frame, heard):
                    delivered = True
        self._settle(frame, delivered, recorder_ok)

    def _publish(self, frame: Frame, delay_ms: float = 0.0) -> None:
        """A frame has crossed a bus: the recorders read it, then — now,
        or ``delay_ms`` later when the acknowledgement takes that long
        to appear — the stations do. With no recorder attached
        (publishing disabled) the rule is vacuous and frames flow."""
        stored = self._record_frame(frame)
        recorder_ok = stored or not self._recorder_ifaces
        if delay_ms > 0:
            self.engine.schedule(delay_ms, self._deliver_cb,
                                 frame, recorder_ok, stored is not None)
        else:
            self._deliver_to_receivers(frame, recorder_ok, stored is not None)

    def _notify_recorders_of_delivery(self, frame: Frame) -> None:
        """§4.4.1 ack tracing: tell every healthy recorder that the
        destination actually received this frame, so per-process logs
        reflect reception order rather than recording order."""
        if frame.kind is not FrameKind.DATA:
            return
        for rec in self._recorder_ifaces:
            if rec.up and rec.on_delivery is not None:
                rec.on_delivery(frame)

    def _notify_sender(self, frame: Frame, ok: bool) -> None:
        if not self.provides_delivery_ack:
            return
        iface = self._stations.get(frame.src_node)
        if iface is not None and iface.on_delivered is not None:
            iface.on_delivered(frame, ok)


class PerfectBroadcast(Medium):
    """A serialized, reliable broadcast bus.

    Frames queue FIFO and occupy the wire for ``tx_time_ms``; on
    completion the recorder stores the frame and receivers get it in the
    same total order. This is the medium most functional tests use: all
    interesting behaviour (loss, recorder misses) comes from the fault
    plan, not from contention.

    ``ack_latency_ms`` delays delivery (and therefore the hardware
    acknowledgement) past the end of transmission — receiver processing,
    a long link — without occupying the bus. It is the regime where the
    §4.3.3 windowing scheme pays off: stop-and-wait idles the bus for a
    full latency per message, a window pipelines through it.
    """

    provides_delivery_ack = True

    kind = "broadcast"

    def __init__(self, *args, ack_latency_ms: float = 0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.ack_latency_ms = ack_latency_ms
        self._queue: Deque[Tuple[NetworkInterface, Frame]] = deque()
        self._busy = False
        # Bound once: scheduling `self._complete` per frame would build
        # a fresh bound-method object for every event on the bus.
        self._complete_cb = self._complete

    def transmit(self, iface: NetworkInterface, frame: Frame) -> None:
        self.stats.note_offered(frame.size_bytes)
        self._queue.append((iface, frame))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        iface, frame = self._queue.popleft()
        duration = self.tx_time_ms(frame.size_bytes)
        self.stats.busy_time_ms.inc(duration)
        self.engine.schedule(duration, self._complete_cb, iface, frame)

    def _complete(self, iface: NetworkInterface, frame: Frame) -> None:
        if iface.up:
            self._publish(frame, self.ack_latency_ms)
        self._start_next()
