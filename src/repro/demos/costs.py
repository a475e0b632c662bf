"""The cost model reproducing the Chapter 5 measurements.

Figure 5.7's exact cell values are partially illegible in our source
text, but the surrounding narrative pins down every relationship:

* without publishing, the send-to-self round trip costs the kernel 9 ms
  of CPU and 10 ms of real time ("the 1 ms difference between the CPU
  time used by the kernel and the elapsed real time is the time used by
  the user process");
* with publishing, "an additional 2 ms are spent in transmitting the
  message over the network medium" and "the additional 26 ms of CPU time
  ... is due entirely to the network protocol and to the servicing of
  the network device interrupts", i.e. 35 ms CPU / 38 ms real;
* of the protocol cost, "less than 1 ms is attributable to copying the
  message into and out of device buffers".

§5.2.2 fixes the recorder-side cost of publishing one message: 57 ms as
first implemented, 12 ms after inlining subroutine calls, and 0.8 ms
when messages are intercepted at the media layer (the figure the queuing
model assumes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass
class CostModel:
    """CPU costs (ms) charged by kernels, nodes, and the recorder."""

    # --- per kernel call, paid on the calling node ---------------------
    send_cpu_ms: float = 5.0          # send-message kernel call
    recv_cpu_ms: float = 4.0          # receive-message kernel call
    link_call_cpu_ms: float = 0.5     # create/destroy/move-link calls

    # --- the network protocol tax publishing adds ----------------------
    #: CPU spent driving the protocol + interrupts per published message,
    #: split between the sending and receiving sides. Together they are
    #: the thesis's "additional 26 ms".
    net_protocol_send_cpu_ms: float = 13.0
    net_protocol_recv_cpu_ms: float = 13.0

    # --- user code ------------------------------------------------------
    user_handler_cpu_ms: float = 1.0  # default charge per delivered message

    # --- process control -------------------------------------------------
    create_process_cpu_ms: float = 3.0   # per stage of the control chain
    destroy_process_cpu_ms: float = 2.0

    # --- recorder-side publishing cost (§5.2.2) --------------------------
    #: Selectable software paths for the recorder's per-message work.
    publish_cpu_full_protocol_ms: float = 57.0   # all layers, subroutine calls
    publish_cpu_inlined_ms: float = 12.0         # after inlining
    publish_cpu_media_tap_ms: float = 0.8        # intercepted at media layer

    # --- checkpointing ----------------------------------------------------
    checkpoint_cpu_per_page_ms: float = 1.0
    page_bytes: int = 1024

    def message_cpu_ms(self, published: bool, side: str) -> float:
        """Kernel CPU for one message on one side ('send' or 'recv')."""
        if side == "send":
            cost = self.send_cpu_ms
            if published:
                cost += self.net_protocol_send_cpu_ms
        elif side == "recv":
            cost = self.recv_cpu_ms
            if published:
                cost += self.net_protocol_recv_cpu_ms
        else:
            raise ConfigError(f"side must be 'send' or 'recv', got {side!r}")
        return cost

    def publish_cpu_ms(self, path: str = "inlined") -> float:
        """The recorder's CPU per published message for a software path."""
        paths = {
            "full_protocol": self.publish_cpu_full_protocol_ms,
            "inlined": self.publish_cpu_inlined_ms,
            "media_tap": self.publish_cpu_media_tap_ms,
        }
        try:
            return paths[path]
        except KeyError:
            raise ConfigError(
                f"unknown publish path {path!r}; expected one of {sorted(paths)}"
            ) from None
