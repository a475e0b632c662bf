"""Standard CSMA/CD Ethernet (Metcalfe & Boggs).

"In the standard Ethernet, the network is available to all nodes for
transmission whenever they detect no transmission on it. If two nodes
transmit at the same time (collide), they will detect the condition,
cease transmission, and then retry after pseudo randomly different
intervals" (§6.1.1).

The model is slotted at the classic 51.2 µs slot time: stations that
begin transmitting within the same slot collide, abort after one slot,
and back off a truncated binary exponential number of slots. Receivers
of data frames reply with ACK frames that **contend for the bus like any
other frame** — under load these acknowledgements collide with queued
data, which is exactly the inefficiency Figure 6.2 illustrates and the
Acknowledging Ethernet removes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.net.frames import Frame, FrameKind
from repro.net.media import Medium, NetworkInterface
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

#: classic Ethernet slot (51.2 µs)
SLOT_TIME_MS = 0.0512
#: truncated binary exponential backoff: at most 2**10 slots
MAX_BACKOFF_EXP = 10
#: a frame that collides this many times is dropped
MAX_ATTEMPTS = 16


class CsmaEthernet(Medium):
    """A slotted CSMA/CD broadcast medium with collisions.

    With ``auto_ack`` every receiver of a data frame answers with an ACK
    frame that contends for the bus (the Figure 6.2 contrast)."""

    provides_delivery_ack = False

    kind = "csma"

    def __init__(self, engine: Engine, rng: RngStreams,
                 auto_ack: bool = False, **kwargs):
        super().__init__(engine, **kwargs)
        self.rng = rng
        self.auto_ack = auto_ack
        self._busy_until = 0.0
        #: transmissions waiting to start, grouped by their start slot
        self._starting: List[Tuple[NetworkInterface, Frame, int]] = []
        self._resolution_pending = False
        #: node id -> its backoff stream's ``randrange``, resolved once
        self._backoff_draws: Dict[int, Callable[[int, int], int]] = {}
        # Bound once: deferred attempts, slot resolution and completions
        # are scheduled for every frame on the bus.
        self._attempt_cb = self._attempt
        self._resolve_cb = self._resolve
        self._complete_cb = self._complete
        prefix = f"media.{self.kind}"
        #: contending ACK frames emitted by receivers (auto_ack mode)
        self.acks_sent = self.obs.registry.counter(f"{prefix}.acks_sent")
        #: collisions in which at least one contender was an ACK frame
        self.ack_collisions = self.obs.registry.counter(
            f"{prefix}.ack_collisions")

    # ------------------------------------------------------------------
    def transmit(self, iface: NetworkInterface, frame: Frame) -> None:
        self.stats.note_offered(frame.size_bytes)
        self._attempt(iface, frame, attempt=0)

    def _attempt(self, iface: NetworkInterface, frame: Frame, attempt: int) -> None:
        now = self.engine.now
        if now < self._busy_until:
            # Defer until the carrier drops, then contend.
            self.engine.schedule(self._busy_until - now, self._attempt_cb,
                                 iface, frame, attempt)
            return
        self._starting.append((iface, frame, attempt))
        if not self._resolution_pending:
            self._resolution_pending = True
            # All stations starting within one slot time collide.
            self.engine.schedule(SLOT_TIME_MS, self._resolve_cb)

    def _resolve(self) -> None:
        self._resolution_pending = False
        contenders, self._starting = self._starting, []
        if not contenders:
            return
        if len(contenders) == 1:
            iface, frame, _attempt = contenders[0]
            self._begin_transmission(iface, frame)
            return
        # Collision: one slot of wasted bus time, everyone backs off.
        self.stats.collisions.inc(len(contenders))
        if any(f.kind is FrameKind.ACK for _, f, _ in contenders):
            self.ack_collisions.inc()
        self.events.emit("collision", "bus", contenders=len(contenders))
        self._busy_until = self.engine.now + SLOT_TIME_MS
        self.stats.busy_time_ms.inc(SLOT_TIME_MS)
        for iface, frame, attempt in contenders:
            attempt += 1
            if attempt >= MAX_ATTEMPTS:
                self.events.emit("frame_dropped", f"node{iface.node_id}",
                                 reason="excessive_collisions")
                continue          # excessive collisions: frame dropped
            exp = min(attempt, MAX_BACKOFF_EXP)
            draw = self._backoff_draws.get(iface.node_id)
            if draw is None:
                draw = self._backoff_draws[iface.node_id] = self.rng.stream(
                    f"ether/{iface.node_id}").randrange
            slots = draw(0, 2 ** exp)
            delay = SLOT_TIME_MS * (1 + slots)
            self.engine.schedule(delay, self._attempt_cb, iface, frame, attempt)

    def _begin_transmission(self, iface: NetworkInterface, frame: Frame,
                            reserved_ms: float = 0.0) -> None:
        """Carry the frame; the bus stays busy ``reserved_ms`` longer."""
        duration = self.tx_time_ms(frame.size_bytes)
        self._busy_until = self.engine.now + (duration + reserved_ms)
        self.stats.busy_time_ms.inc(duration + reserved_ms)
        self.engine.schedule(duration, self._complete_cb, iface, frame)

    def _complete(self, iface: NetworkInterface, frame: Frame) -> None:
        if not iface.up:
            return
        self._publish(frame)
        if self.auto_ack and frame.kind is FrameKind.DATA:
            self._send_auto_ack(frame)

    def _send_auto_ack(self, frame: Frame) -> None:
        """Model the receiver's acknowledgement as a contending frame."""
        iface = self._stations.get(frame.dst_node)
        if iface is not None and iface.up:
            ack = Frame(kind=FrameKind.ACK, src_node=iface.node_id,
                        dst_node=frame.src_node,
                        payload=("ack", frame.frame_id), size_bytes=32)
            self.acks_sent.inc()
            self.transmit(iface, ack)
