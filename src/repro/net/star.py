"""A star configuration whose hub is the recorder (§4.1, Figure 4.1a).

"On the Z8000s, we accomplish this by making the recording node the hub
of a star configuration. Any messages received incorrectly by the
recorder are not passed on."

Model: every station has a point-to-point link to the hub; each link is
serialized independently. A frame travels station → hub, the hub (a
recorder interface) stores it, and only then forwards it to the
destination link. A frame the hub receives corrupted is dropped — the
transport layer's retransmission recovers it. By construction every
frame the receiver sees has been recorded, so ``recorder_acked`` is
always set on forwarded data frames.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.frames import BROADCAST, Frame, FrameKind
from repro.net.media import Medium, NetworkInterface
from repro.sim.engine import Engine


class StarHub(Medium):
    """Point-to-point links to a recording hub that forwards frames."""

    provides_delivery_ack = True

    kind = "star"

    def __init__(self, engine: Engine, hub_processing_ms: float = 0.8, **kwargs):
        super().__init__(engine, **kwargs)
        self.hub_processing_ms = hub_processing_ms
        self.hub: Optional[NetworkInterface] = None
        self._link_busy_until: Dict[int, float] = {}
        self._link_queues: Dict[int, List[Tuple[Frame, bool]]] = {}

    # ------------------------------------------------------------------
    def attach(self, iface: NetworkInterface) -> NetworkInterface:
        iface = super().attach(iface)
        if iface.is_recorder:
            if self.hub is not None:
                raise NetworkError("a star has exactly one hub/recorder")
            self.hub = iface
        else:
            self._link_queues[iface.node_id] = []
            self._link_busy_until[iface.node_id] = 0.0
        return iface

    def transmit(self, iface: NetworkInterface, frame: Frame) -> None:
        if self.hub is None:
            raise NetworkError("star hub (recorder) not attached")
        self.stats.note_offered(frame.size_bytes)
        if iface.is_recorder:
            # The hub itself is sending (watchdog pings, recovery
            # traffic, markers): it is already "at the hub", so record
            # and forward directly down the destination link.
            self._arrive_at_hub(frame)
            return
        self._send_on_link(iface.node_id, frame, toward_hub=True)

    # ------------------------------------------------------------------
    def _send_on_link(self, station_id: int, frame: Frame, toward_hub: bool) -> None:
        """Serialize a transfer on the station↔hub link."""
        queue = self._link_queues.get(station_id)
        if queue is None:
            return   # destination not attached; hub drops the frame
        duration = self.tx_time_ms(frame.size_bytes)
        start = max(self.engine.now, self._link_busy_until[station_id])
        self._link_busy_until[station_id] = start + duration
        self.stats.busy_time_ms.inc(duration)
        self.engine.schedule_at(start + duration, self._link_done,
                                station_id, frame, toward_hub)

    def _link_done(self, station_id: int, frame: Frame, toward_hub: bool) -> None:
        if toward_hub:
            self._arrive_at_hub(frame)
        else:
            self._arrive_at_station(station_id, frame)

    # ------------------------------------------------------------------
    def _arrive_at_hub(self, frame: Frame) -> None:
        if self.hub is None or not self.hub.up:
            # Hub down: nothing is forwarded; senders retransmit later.
            self.stats.recorder_misses.inc()
            self.events.emit("recorder_miss", f"node{frame.src_node}",
                             reason="hub_down")
            self._notify_sender(frame, False)
            return
        seen = self.faults.apply(frame, self.hub.node_id)
        if seen is None or not seen.checksum_ok():
            # "Any messages received incorrectly by the recorder are not
            # passed on."
            self.stats.recorder_misses.inc()
            self.events.emit("recorder_miss", f"node{frame.src_node}",
                             reason="hub_receive_error")
            self._notify_sender(frame, False)
            return
        self.hub.on_frame(seen)
        self.engine.schedule(self.hub_processing_ms, self._forward, frame)

    def _forward(self, frame: Frame) -> None:
        frame = frame.clone_for(frame.dst_node)
        frame.recorder_acked = True
        if frame.dst_node == BROADCAST:
            for iface in self.interfaces:
                if iface.is_recorder or iface.node_id == frame.src_node:
                    continue
                self._send_on_link(iface.node_id, frame.clone_for(iface.node_id),
                                   toward_hub=False)
            self._notify_sender(frame, True)
            return
        if frame.dst_node == frame.src_node:
            # Intranode message published via the hub loops straight back.
            self._send_on_link(frame.src_node, frame, toward_hub=False)
            self._notify_sender(frame, True)
            return
        self._send_on_link(frame.dst_node, frame, toward_hub=False)
        self._notify_sender(frame, True)

    def _arrive_at_station(self, station_id: int, frame: Frame) -> None:
        iface = self._stations.get(station_id)
        if iface is None or iface.is_recorder or not iface.up:
            return
        seen = self.faults.apply(frame, station_id)
        if seen is not None:
            iface.on_frame(seen)
            if seen.checksum_ok():
                self.stats.frames_delivered.inc()
                self.stats.bytes_delivered.inc(frame.size_bytes)
                self._notify_recorders_of_delivery(frame)
