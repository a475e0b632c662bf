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
taking :data:`HOP_TIME_MS` per hop. A station holding the token fills the
slot; the frame then travels the ring and is drained when it returns to
the sender, which reinserts the token. This module is the circulation
only — when the recorders read the slot, when each station may, when
the sender hears; what they then do is :class:`~repro.net.media.Medium`'s.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Tuple

from repro.net.frames import Frame
from repro.net.media import BANDWIDTH_BPS, Medium, NetworkInterface
from repro.sim.engine import Engine

#: per-station forwarding latency of the circulating slot
HOP_TIME_MS = 0.05


class TokenRing(Medium):
    """A single-slot token ring honouring the recorder-ack field."""

    provides_delivery_ack = True

    kind = "token_ring"

    def __init__(self, engine: Engine, **kwargs):
        super().__init__(engine, **kwargs)
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
        # a destination sits upstream of the recorder and must wait for
        # the ack field to be filled).
        # Ring order: the stations after the sender, then the sender.
        i = self.interfaces.index(iface) + 1
        ring = self.interfaces[i:] + self.interfaces[:i]
        serialization = frame.size_bytes * 8.0 / BANDWIDTH_BPS * 1000.0
        self.stats.busy_time_ms.inc(serialization + HOP_TIME_MS * len(ring))
        # The slot. ``ack`` is its acknowledge field: None while empty
        # (without a recorder on the ring it has nothing to wait for),
        # then what the recorders made of the frame, stamped on every
        # copy read. ``heard`` turns False for a frame lost before any
        # recorder, ``invalidated`` True once its checksum is complemented.
        # ``served`` holds the stations that have an intact copy — none is
        # handed a second on the second pass — and ``skipped`` says a
        # taker saw the field still empty.
        slot = SimpleNamespace(
            frame=frame, ring=ring, heard=True, invalidated=False, served=[],
            skipped=False, passes=0,
            ack=None if self._recorder_ifaces else True)
        self.engine.schedule(serialization + HOP_TIME_MS,
                             self._visit_cb, slot, 0)

    def _visit(self, slot: SimpleNamespace, index: int) -> None:
        frame, ring = slot.frame, slot.ring
        if index >= len(ring):
            slot.passes += 1
            readable = slot.ack is not None and not slot.invalidated
            if (readable and slot.passes < 2
                    and (slot.skipped or not slot.served)):
                # A destination sits upstream of the recorder: it saw an
                # empty ack field on the first pass. Circulate once more
                # with the field filled so it can read the message.
                self.stats.busy_time_ms.inc(HOP_TIME_MS * len(ring))
                self.engine.schedule(HOP_TIME_MS, self._visit_cb, slot, 0)
                return
            # Back at the sender: drain the slot, reinsert the token.
            self._settle(frame, bool(slot.served), bool(slot.ack))
            self._seize_token()
            return
        station = ring[index]
        if station.is_recorder:
            if station.up and slot.ack is None:
                # The first live recorder the slot passes fills the field
                # for all of them (§6.3: every recorder or none).
                stored = self._record_frame(frame)
                slot.heard = stored is not None
                slot.ack = bool(stored)
                if self._withhold(frame, slot.ack):
                    # Complement the trailing checksum bytes so no
                    # downstream station can use the frame.
                    slot.invalidated = True
                    self.frames_invalidated.inc()
                    self.events.emit("invalidated", f"node{frame.src_node}",
                                     dst=frame.dst_node)
                elif slot.ack and self._addressed_to_recorder(frame):
                    slot.served.append(self._stations[frame.dst_node])
        elif (not slot.invalidated and station not in slot.served
                and self._takes(station, frame)):
            if slot.ack is None:
                slot.skipped = True     # empty ack field: ignore the slot
            elif self._hand(station, frame, slot.ack, slot.heard):
                slot.served.append(station)
        self.engine.schedule(HOP_TIME_MS, self._visit_cb, slot, index + 1)
