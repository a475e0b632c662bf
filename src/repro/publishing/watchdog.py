"""Watchdog crash detection (§3.3.2, §4.6).

"For each processor in the system, the recovery manager starts a
watchdog process on the recording node. ... Each watch process
periodically sends an 'are you alive' request over this link. ... If no
reply is received in a predetermined interval, the processor being
watched is assumed to have crashed."

Pings and replies are unguaranteed control datagrams — the class the
transport provides precisely "for the kernel process when sending dated
or statistical information".
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.demos.messages import Control
from repro.obs import Observability
from repro.sim.engine import Engine, EventHandle


class Watchdog:
    """One watch process: pings a node, reports silence.

    ``pings_sent`` / ``replies_seen`` are :class:`~repro.obs.Counter`
    attributes registered as ``watchdog.<node>.*``, so chaos-campaign
    reports and ``metrics`` snapshots see them.
    """

    def __init__(self, engine: Engine, node_id: int,
                 send_ping: Callable[[int, Control], None],
                 on_crash: Callable[[int], None],
                 ping_interval_ms: float = 500.0,
                 timeout_ms: float = 1500.0,
                 obs: Optional[Observability] = None):
        self.engine = engine
        self.node_id = node_id
        self._send_ping = send_ping
        self._on_crash = on_crash
        self.ping_interval_ms = ping_interval_ms
        self.timeout_ms = timeout_ms
        self._nonce = 0
        self._last_reply = engine.now
        self._running = False
        self._fired = False
        self._tick_handle: Optional[EventHandle] = None
        obs = obs or Observability(lambda: engine.now)
        prefix = f"watchdog.{node_id}"
        self.events = obs.scope(prefix)
        self.pings_sent = obs.registry.counter(f"{prefix}.pings_sent")
        self.replies_seen = obs.registry.counter(f"{prefix}.replies_seen")

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin watching."""
        if self._running:
            return
        self._running = True
        self._fired = False
        self._last_reply = self.engine.now
        self._tick()

    def stop(self) -> None:
        """Stop watching (node known dead, or recorder crashing)."""
        self._running = False
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None

    def reset(self) -> None:
        """Re-arm after the node was recovered."""
        self.stop()
        self.start()

    # ------------------------------------------------------------------
    def note_reply(self, control: Control) -> None:
        """Called when an alive_reply from our node arrives."""
        if control.get("node") != self.node_id:
            return
        self._last_reply = self.engine.now
        self.replies_seen.inc()
        self._fired = False

    def _tick(self) -> None:
        if not self._running:
            return
        self._nonce += 1
        self.pings_sent.inc()
        self._send_ping(self.node_id, Control("are_you_alive", {
            "nonce": self._nonce, "watched": self.node_id,
        }))
        silent_for = self.engine.now - self._last_reply
        if silent_for > self.timeout_ms and not self._fired:
            self._fired = True
            self.events.emit("silent", f"node{self.node_id}",
                             silent_for_ms=silent_for)
            self._on_crash(self.node_id)
        self._tick_handle = self.engine.schedule(self.ping_interval_ms, self._tick)
