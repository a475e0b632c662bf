"""The Acknowledging Ethernet (Tokoro & Tamaru), extended for publishing.

"The difference is that a time slot is reserved after each message is
sent. During this time slot, only the receiver is allowed to transmit"
(§6.1.1). For published communications the same reserved slot carries the
**recorder's** acknowledgement: "During that time slot, the receiver
waits for an acknowledge from the recorder. If one appears it accepts the
message ... If not it discards the packet exactly as if it had received a
bad packet."

Model: contention and collisions behave exactly like
:class:`~repro.net.ethernet.CsmaEthernet`, but after every data frame the
bus is reserved for one acknowledgement slot. Within it the recorder's
ack (if the recorder stored the frame) and the receiver's hardware ack
are transmitted without contention, so acknowledgements never collide
with queued data frames — the Figure 6.1/6.2 comparison.
"""

from __future__ import annotations

from repro.net.ethernet import SLOT_TIME_MS, CsmaEthernet
from repro.net.frames import Frame, FrameKind
from repro.net.media import NetworkInterface
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams


class AckingEthernet(CsmaEthernet):
    """CSMA/CD with a reserved per-frame acknowledgement slot, one
    Ethernet slot long; acknowledgements ride it, never a contending
    frame."""

    provides_delivery_ack = True

    kind = "acking"

    def __init__(self, engine: Engine, rng: RngStreams, **kwargs):
        super().__init__(engine, rng, **kwargs)
        #: acknowledgement slots reserved after data frames
        self.reserved_slots = self.obs.registry.counter(
            f"media.{self.kind}.reserved_slots")

    def _begin_transmission(self, iface: NetworkInterface, frame: Frame) -> None:
        reserved_ms = 0.0
        if frame.kind is FrameKind.DATA:
            # Reserve the acknowledgement slot: the bus stays busy through
            # it, so no station can start a frame that would collide with
            # the acknowledgement.
            reserved_ms = SLOT_TIME_MS
            self.reserved_slots.inc()
        super()._begin_transmission(iface, frame, reserved_ms)

    def _complete(self, iface: NetworkInterface, frame: Frame) -> None:
        # Receivers (and through them the sender's hardware
        # acknowledgement) learn a data frame's fate at the end of the
        # reserved slot.
        if iface.up:
            self._publish(
                frame, SLOT_TIME_MS if frame.kind is FrameKind.DATA else 0.0)
