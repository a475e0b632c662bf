"""A star configuration whose hub is the recorder (§4.1, Figure 4.1a).

"On the Z8000s, we accomplish this by making the recording node the hub
of a star configuration. Any messages received incorrectly by the
recorder are not passed on."

Model: every station has a point-to-point link to the hub; each link is
serialized independently. A frame travels station → hub, the hub (a
recorder interface) reads it and, after its processing delay, sends a
copy down the link of every station that takes it. The hub is the only
path, so the publishing rule is not a setting here: what the hub did
not store goes nowhere. What reading, taking and telling the sender
mean is :class:`~repro.net.media.Medium`'s; this module is the timing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import NetworkError
from repro.net.frames import Frame
from repro.net.media import Medium, NetworkInterface
from repro.sim.engine import Engine


class StarHub(Medium):
    """Point-to-point links to a recording hub that forwards frames."""

    provides_delivery_ack = True

    kind = "star"

    def __init__(self, engine: Engine, hub_processing_ms: float = 0.8, **kwargs):
        super().__init__(engine, **kwargs)
        self.enforce_recorder_ack = True    # structural, see the module doc
        self.hub_processing_ms = hub_processing_ms
        self.hub: Optional[NetworkInterface] = None
        self._link_busy_until: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def attach(self, iface: NetworkInterface) -> NetworkInterface:
        if iface.is_recorder and self.hub is not None:
            raise NetworkError("a star has exactly one hub/recorder")
        iface = super().attach(iface)
        if iface.is_recorder:
            self.hub = iface
        else:
            self._link_busy_until[iface.node_id] = 0.0
        return iface

    def transmit(self, iface: NetworkInterface, frame: Frame) -> None:
        if self.hub is None:
            raise NetworkError("star hub (recorder) not attached")
        self.stats.note_offered(frame.size_bytes)
        if iface.is_recorder:
            # The hub itself is sending (watchdog pings, recovery
            # traffic, markers): it is already "at the hub".
            self._arrive_at_hub(frame)
        else:
            self._send_on_link(iface.node_id, frame, self._arrive_at_hub)

    # ------------------------------------------------------------------
    def _send_on_link(self, station_id: int, frame: Frame, arrive, *args) -> None:
        """Serialize a transfer on the station↔hub link;
        ``arrive(frame, *args)`` runs at its far end."""
        duration = self.tx_time_ms(frame.size_bytes)
        start = max(self.engine.now, self._link_busy_until[station_id])
        self._link_busy_until[station_id] = start + duration
        self.stats.busy_time_ms.inc(duration)
        self.engine.schedule_at(start + duration, arrive, frame, *args)

    def _arrive_at_hub(self, frame: Frame) -> None:
        recorder_ok = bool(self._record_frame(frame))
        if self._withhold(frame, recorder_ok) or not recorder_ok:
            # "Any messages received incorrectly by the recorder are not
            # passed on" — nor any that reach a hub that is down, of
            # whatever kind and whatever the miss policy says.
            self._settle(frame, False, False)
            return
        self.engine.schedule(self.hub_processing_ms, self._forward, frame)

    def _forward(self, frame: Frame) -> None:
        takers = [iface for iface in self._candidates(frame)
                  if self._takes(iface, frame)]
        if not takers:
            self._settle(frame, False, True)
            return
        # [copies still on their links, did one arrive intact]
        fate = [len(takers), False]
        for iface in takers:
            self._send_on_link(iface.node_id, frame,
                               self._arrive_at_station, iface, fate)

    def _arrive_at_station(self, frame: Frame, iface: NetworkInterface,
                           fate: List) -> None:
        # still up, still attached: a spare that took the id over since
        # is another machine and does not get this copy
        if self._takes(iface, frame) and self._hand(iface, frame, True):
            fate[1] = True
        fate[0] -= 1
        if not fate[0]:
            # The sender hears once the last copy has arrived.
            self._settle(frame, fate[1], True)
