"""A token ring with a recorder acknowledgement field (§6.1.2).

"In a token ring, one or more message slots circulate around the ring.
... For published communications we add an acknowledge field to the
message slot. When a message is inserted into the ring, the acknowledge
field is empty. Messages that have an empty acknowledge field are ignored
by all nodes except the recorder. When the message passes the recorder,
the recorder fills the acknowledge field and reads the message. If the
message is incorrectly received, the last few bytes of the message
(usually the checksum) are complemented, thereby invalidating the
message."

Model: a single slot circulates visiting stations in attachment order,
taking ``hop_time_ms`` per hop. A station holding the token fills the
slot; the frame then travels the ring, is acknowledged (or invalidated)
at the recorder, is read by its destination only after the recorder hop,
and is drained when it returns to the sender, which reinserts the token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.frames import BROADCAST, Frame, FrameKind
from repro.net.media import Medium, NetworkInterface
from repro.sim.engine import Engine


@dataclass
class TokenRingParams:
    """Timing constants for the ring model."""

    hop_time_ms: float = 0.05      # per-station forwarding latency
    slot_header_bytes: int = 16    # token + ack field overhead


class TokenRing(Medium):
    """A single-slot token ring honouring the recorder-ack field."""

    provides_delivery_ack = True

    kind = "token_ring"

    def __init__(self, engine: Engine, params: Optional[TokenRingParams] = None,
                 **kwargs):
        super().__init__(engine, **kwargs)
        self.params = params or TokenRingParams()
        self._waiting: List[Tuple[NetworkInterface, Frame]] = []
        self._slot_busy = False
        # Bound once: a frame's circulation schedules one visit per hop.
        self._visit_cb = self._visit
        #: frames whose checksum the recorder complemented (§6.1.2)
        self.frames_invalidated = self.obs.registry.counter(
            f"media.{self.kind}.frames_invalidated")

    # ------------------------------------------------------------------
    def transmit(self, iface: NetworkInterface, frame: Frame) -> None:
        self.stats.note_offered(frame.size_bytes)
        self._waiting.append((iface, frame))
        if not self._slot_busy:
            self._seize_token()

    def _seize_token(self) -> None:
        if not self._waiting:
            self._slot_busy = False
            return
        self._slot_busy = True
        iface, frame = self._waiting.pop(0)
        if not iface.up:
            self.engine.call_soon(self._seize_token)
            return
        # The frame occupies the slot for one full circulation (two, when
        # the destination sits upstream of the recorder and must wait for
        # the ack field to be filled).
        ring = self._ring_order_from(iface)
        serialization = frame.size_bytes * 8.0 / self.bandwidth_bps * 1000.0
        self.stats.busy_time_ms.inc(
            serialization + self.params.hop_time_ms * len(ring))
        self._advance(iface, frame, ring, index=0,
                      ack_filled=False, invalidated=False, delivered=False,
                      passes=0, delay=serialization)

    def _ring_order_from(self, sender: NetworkInterface) -> List[NetworkInterface]:
        """Stations in ring order starting after the sender."""
        if sender not in self.interfaces:
            raise NetworkError("sender is not attached to the ring")
        i = self.interfaces.index(sender)
        n = len(self.interfaces)
        return [self.interfaces[(i + k) % n] for k in range(1, n + 1)]

    def _advance(self, sender: NetworkInterface, frame: Frame,
                 ring: List[NetworkInterface], index: int,
                 ack_filled: bool, invalidated: bool, delivered: bool,
                 passes: int, delay: float) -> None:
        self.engine.schedule(delay + self.params.hop_time_ms, self._visit_cb,
                             sender, frame, ring, index, ack_filled,
                             invalidated, delivered, passes)

    def _visit(self, sender: NetworkInterface, frame: Frame,
               ring: List[NetworkInterface], index: int,
               ack_filled: bool, invalidated: bool, delivered: bool,
               passes: int) -> None:
        if index >= len(ring):
            passes += 1
            ok = (ack_filled or not self._recorder_ifaces) and not invalidated
            if ok and not delivered and passes < 2:
                # The destination sits upstream of the recorder: it saw an
                # empty ack field on the first pass. Circulate once more
                # with the field filled so it can read the message.
                self.stats.busy_time_ms.inc(self.params.hop_time_ms * len(ring))
                self._advance(sender, frame, ring, 0, ack_filled,
                              invalidated, delivered, passes, delay=0.0)
                return
            # Back at the sender: drain the slot, reinsert the token.
            success = ok and delivered
            if sender.on_delivered is not None and frame.kind is FrameKind.DATA:
                sender.on_delivered(frame, success)
            if success:
                self.stats.frames_delivered.inc()
                self.stats.bytes_delivered.inc(frame.size_bytes)
            self._seize_token()
            return
        station = ring[index]
        if station.up:
            if station.is_recorder:
                if not ack_filled and not invalidated:
                    seen = self.faults.apply(frame, station.node_id)
                    if seen is not None and seen.checksum_ok():
                        station.on_frame(seen)
                        ack_filled = True
                        if frame.dst_node == station.node_id:
                            # Traffic addressed to the recorder itself
                            # (checkpoints, notices) is consumed here.
                            delivered = True
                    else:
                        # Recorder complements the trailing checksum bytes
                        # so no downstream station can use the frame.
                        invalidated = True
                        self.frames_invalidated.inc()
                        self.stats.recorder_misses.inc()
                        self.events.emit("invalidated",
                                         f"node{frame.src_node}",
                                         dst=frame.dst_node)
            elif ((not delivered or frame.dst_node == BROADCAST)
                    and frame.dst_node in (station.node_id, BROADCAST)
                    and (station.node_id != frame.src_node
                         # published intranode messages loop back to
                         # their own station (§4.4.1)
                         or frame.dst_node == frame.src_node)):
                usable = not invalidated
                if self._recorder_ifaces and not ack_filled:
                    usable = False   # empty ack field: ignore (publishing rule)
                if usable:
                    seen = self.faults.apply(frame, station.node_id)
                    if seen is not None:
                        seen.recorder_acked = (ack_filled
                                               or not self._recorder_ifaces)
                        station.on_frame(seen)
                        delivered = True
                        self._notify_recorders_of_delivery(frame)
        elif (frame.dst_node == station.node_id and not station.is_recorder):
            # Destination down: the slot completes its circulation(s) and
            # the sender sees failure.
            pass
        self._advance(sender, frame, ring, index + 1, ack_filled, invalidated,
                      delivered, passes, delay=0.0)
