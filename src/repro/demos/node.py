"""A processing node: message kernel + kernel process + control plumbing.

The node registers the kernel-level control handlers for the protocols
that operate *below* the process level:

* the watchdog's "are you alive" request (§4.6) — answered immediately
  while the node is up;
* the recorder's restart-time state query (§3.3.4) — answered with the
  state of every local process and the echoed restart number (§3.4);
* the recovery protocol (§4.7) — recreate requests, replay injection,
  and the recovery-completion hand-back.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro import costs
from repro.demos.ids import MessageId, ProcessId, kernel_pid
from repro.demos.kernel import KernelConfig, MessageKernel
from repro.demos.kernel_process import KERNEL_PROCESS_IMAGE
from repro.demos.messages import Control
from repro.demos.process import ProgramRegistry
from repro.net.media import Medium
from repro.obs import Observability
from repro.sim.engine import Engine


class Node:
    """One DEMOS/MP processing node."""

    def __init__(self, engine: Engine, node_id: int, medium: Medium,
                 config: KernelConfig, registry: ProgramRegistry,
                 obs: Optional[Observability] = None):
        self.engine = engine
        self.node_id = node_id
        self.kernel = MessageKernel(engine, node_id, medium, config,
                                    registry, obs=obs)
        self.booted = False
        #: bounded ring of recently published messages — attached by
        #: the gossip coordinator (publishing.gossip), None otherwise
        self.gossip_buffer = None
        self._register_handlers()

    # ------------------------------------------------------------------
    def boot(self, boot_specs: Tuple = (), nls_pid: Optional[Tuple] = None) -> None:
        """Start the kernel process, which starts the system processes."""
        self.kernel.create_process(
            image=KERNEL_PROCESS_IMAGE,
            args=(boot_specs, nls_pid),
            pid=kernel_pid(self.node_id),
            recoverable=True,
            state_pages=2,
        )
        self.booted = True

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Processor failure: all processes and volatile state are lost."""
        if self.gossip_buffer is not None:
            self.gossip_buffer.clear()      # the buffer is volatile too
        self.kernel.crash_node()

    def restart(self) -> None:
        """Reboot empty; the recovery manager repopulates the node."""
        self.kernel.restart_node()

    @property
    def up(self) -> bool:
        return self.kernel.up

    # ------------------------------------------------------------------
    def _register_handlers(self) -> None:
        handlers = self.kernel.control_handlers
        handlers["are_you_alive"] = self._on_are_you_alive
        handlers["state_query"] = self._on_state_query
        handlers["recreate"] = self._on_recreate
        handlers["replay"] = self._on_replay
        handlers["recovery_done"] = self._on_recovery_done
        handlers["gossip_pull"] = self._on_gossip_pull

    def _on_are_you_alive(self, control: Control, src_node: int) -> None:
        self.kernel.send_control(src_node, Control("alive_reply", {
            "node": self.node_id, "nonce": control.get("nonce"),
        }), guaranteed=False)

    def _on_state_query(self, control: Control, src_node: int) -> None:
        # §3.4: echo the restart number so the recorder can discard
        # replies that belong to an earlier restart attempt.
        self.kernel.send_control(src_node, Control("state_reply", {
            "node": self.node_id,
            "restart_number": control.get("restart_number"),
            "states": {tuple(pid): state
                       for pid, state in self.kernel.process_states().items()},
        }))

    def _on_recreate(self, control: Control, src_node: int) -> None:
        self.kernel.recreate_process(
            pid=ProcessId(*control["pid"]),
            image=control["image"],
            args=tuple(control["args"]),
            initial_links=tuple(control["initial_links"]),
            checkpoint=control["checkpoint"],
            suppress_send_through=control["suppress_send_through"],
            recoverable=control["recoverable"],
            state_pages=control["state_pages"],
            recovery_epoch=control["epoch"],
        )

    def _on_replay(self, control: Control, src_node: int) -> None:
        self.kernel.inject_replay(control["message"], control["epoch"])

    def _on_recovery_done(self, control: Control, src_node: int) -> None:
        self.kernel.finish_recovery(ProcessId(*control["pid"]),
                                    control["epoch"])

    def _on_gossip_pull(self, control: Control, src_node: int) -> None:
        """Epidemic pull backup: supply any requested message this
        node's bounded buffer still holds. Supplies are unguaranteed —
        the recorder's next round retries whatever is still missing.
        Requests arrive as per-sender ``[lo, hi)`` sequence ranges
        (``gossip.pull_ranges``)."""
        buffer = self.gossip_buffer
        if buffer is None:
            return
        for sender, lo, hi in control["ranges"]:
            for seq in range(lo, hi):
                message = buffer.get(MessageId(ProcessId(*sender), seq))
                if message is not None:
                    self.kernel.send_control(
                        src_node,
                        Control("gossip_supply", {"message": message}),
                        guaranteed=False,
                        size_bytes=message.size_bytes + costs.HEADER_BYTES)
