"""The paper's numbers, each written once.

Chapter 5 checks publishing twice: with a §5.1 queueing model on
Figure 5.2's hardware, and with §5.2 measurements of DEMOS/MP. Both
halves of this reproduction read the values below — the simulated
cluster (kernel, recorder, media, disks, recovery) and the queueing
model (:mod:`repro.queueing`) — so the two cannot disagree about a
number the paper states once.

Readers look an entry up as ``costs.NAME`` when they use it, never
through ``from repro.costs import NAME``: a test that changes an entry
moves every reader with it. (An entry written as another —
``CHECKPOINT_MSG_BYTES``, the media-tap path — takes that value when
this module loads.) Nothing here is a setting, and this module imports
nothing from ``repro``.
"""

# -- Figure 5.2: the hardware ---------------------------------------------
# "Figure 5.2 shows the values of hardware parameters chosen from our
# computing environment at Berkeley, which consists of DEC VAX 11/780's
# connected via a 10 megabit Ethernet."

#: "Network bandwidth: 10 megabits per second"
BANDWIDTH_BPS = 10_000_000
#: "Ethernet interface interpacket delay: 1.6 ms" — a per-interface
#: cost, paid by every frame a simulated medium carries
INTERPACKET_DELAY_MS = 1.6
#: "Disk latency: 3 ms"
DISK_LATENCY_MS = 3.0
#: "Disk transfer rate: 2 megabytes per second", in bytes per ms
DISK_TRANSFER_BYTES_PER_MS = 2000.0
#: "Time to process a packet: 0.8 ms" — the recording node's CPU per
#: frame: §5.2.2's media-layer path below, and the star hub's (the hub
#: is the recorder, §4.1) delay before it forwards a frame
PACKET_CPU_MS = 0.8
#: The queueing model's channel arbitration gap per frame (a documented
#: reconstruction, not a Figure 5.2 entry). The 1.6 ms interpacket
#: delay overlaps with other senders' transmissions on the shared
#: channel; only a small arbitration gap serialises on the channel
#: itself. With the full 1.6 ms serialised the network would bottleneck
#: near 48 users, contradicting §5.1's CPU-bound 115-user result.
CHANNEL_GAP_MS = 0.1


def disk_op_ms(size_bytes: int) -> float:
    """One disk operation on Figure 5.2's disk: the latency plus the
    transfer of ``size_bytes``."""
    return DISK_LATENCY_MS + size_bytes / DISK_TRANSFER_BYTES_PER_MS


# -- sizes ------------------------------------------------------------------
#: §5.1's two traffic classes: "system calls" became 128-byte messages
#: and "I/O requests" 1024-byte ones.
SHORT_MSG_BYTES = 128
LONG_MSG_BYTES = 1024
#: A checkpoint page: a process of ``state_pages`` pages checkpoints
#: ``state_pages`` of these, the kernel's checkpoint notice carries at
#: most one, and the recorder writes and reads a checkpoint back at
#: this size per page. It is §5.1's storage-balance unit too ("a process
#: is checkpointed whenever its published message storage exceeds its
#: checkpoint size").
CHECKPOINT_PAGE_BYTES = 1024
#: §5.1's third traffic class: a checkpoint travels one page per message.
CHECKPOINT_MSG_BYTES = CHECKPOINT_PAGE_BYTES
#: §5.1's fix for disk saturation: "allowing messages to be written out
#: in 4k byte buffers rather than forcing one disk write per message".
DISK_PAGE_BYTES = 4096
#: Bytes the transport adds to a message body, and the size of an
#: acknowledgement frame — the end-to-end ack of §4.3.3 and the
#: recorder's ack on §5.1's return path (a reconstruction: the thesis
#: gives no frame format).
HEADER_BYTES = 32
ACK_BYTES = 32

# -- Chapter 5: DEMOS/MP's kernel (Figure 5.7) --------------------------------
# Without publishing, the send-to-self round trip costs the kernel 9 ms
# of CPU ("the 1 ms difference between the CPU time used by the kernel
# and the elapsed real time is the time used by the user process").
# With publishing "the additional 26 ms of CPU time ... is due entirely
# to the network protocol and to the servicing of the network device
# interrupts", split here evenly between the sending and receiving side,
# i.e. 35 ms CPU; "an additional 2 ms are spent in transmitting the
# message over the network medium", 38 ms real. Of the protocol cost,
# "less than 1 ms is attributable to copying the message into and out
# of device buffers".
SEND_CPU_MS = 5.0
RECV_CPU_MS = 4.0
NET_PROTOCOL_SEND_CPU_MS = 13.0
NET_PROTOCOL_RECV_CPU_MS = 13.0
#: create/destroy/move-link kernel calls
LINK_CALL_CPU_MS = 0.5
#: per stage of the process-creation control chain
CREATE_PROCESS_CPU_MS = 3.0
DESTROY_PROCESS_CPU_MS = 2.0
#: taking or reloading one checkpoint page
CHECKPOINT_CPU_PER_PAGE_MS = 1.0

# -- §5.2.2: the recorder's CPU per published message -----------------------
#: by software path: 57 ms "as first implemented" through every protocol
#: layer, 12 ms after inlining subroutine calls, and the packet time
#: when messages are intercepted at the media layer (the figure the
#: queueing model assumes)
PUBLISH_CPU_MS = {
    "full_protocol": 57.0,
    "inlined": 12.0,
    "media_tap": PACKET_CPU_MS,
}

# -- Figure 3.1: the §3.2.3 recovery-time terms ------------------------------
# t_max = t_cfix + t_page·l_check + t_mfix·(n_t − n_t0) + t_byte·Σ l_msg
#         + (t − t0)/f_cpu
#: fixed table-building time per process
T_CFIX_MS = 100.0
#: per checkpoint page loaded (also Young's T_s per page, §3.2.4)
T_PAGE_MS = 10.0
#: per replayed message, fixed
T_MFIX_MS = 2.0
#: per replayed byte
T_BYTE_MS = 0.01
#: CPU fraction available while recovering, in (0, 1]
F_CPU = 0.5
