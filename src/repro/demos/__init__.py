"""The DEMOS/MP substrate (Chapter 4).

A Python reimplementation of the message-based operating system the
thesis added publishing to:

* links, channels, and messages (§4.2.2) — capabilities, selective
  receive, and the three-part message;
* the message kernel (§4.2.1) — all IPC goes through kernel calls;
* the kernel process (§4.2.3) — create/destroy/control of processes,
  including the DELIVERTOKERNEL mechanism and the MOVELINK exchange that
  §4.4.3 introduces to keep all interactions message-based;
* the memory scheduler and process manager (§4.2.3, §4.3.2) — the
  three-process control chain, one message hop per stage;
* network-wide process names (§4.3.1) — ``ProcessId = (node, local)``;
* nodes and a CPU model, charged the Chapter 5 kernel costs of
  :mod:`repro.costs` that reproduce the Figure 5.7/5.8 measurements.
"""

from repro.demos.ids import KERNEL_LOCAL_ID, MessageId, ProcessId, kernel_pid
from repro.demos.links import Link, LinkTable
from repro.demos.messages import Control, DeliveredMessage, Message
from repro.demos.process import (
    GeneratorProgram,
    ProcessState,
    Program,
    ProgramRegistry,
    Recv,
)
from repro.demos.kernel import KernelConfig, MessageKernel, NodeCpu, ProcessContext
from repro.demos.kernel_process import KERNEL_PROCESS_IMAGE, KernelProcessProgram
from repro.demos.sysprocs import (
    MS_IMAGE,
    NLS_IMAGE,
    PM_IMAGE,
    PM_NAME,
    MemoryScheduler,
    NamedLinkServer,
    ProcessManager,
)

__all__ = [
    "KERNEL_LOCAL_ID",
    "MessageId",
    "ProcessId",
    "kernel_pid",
    "Link",
    "LinkTable",
    "Control",
    "DeliveredMessage",
    "Message",
    "GeneratorProgram",
    "ProcessState",
    "Program",
    "ProgramRegistry",
    "Recv",
    "KernelConfig",
    "MessageKernel",
    "NodeCpu",
    "ProcessContext",
    "KERNEL_PROCESS_IMAGE",
    "KernelProcessProgram",
    "MS_IMAGE",
    "NLS_IMAGE",
    "PM_IMAGE",
    "PM_NAME",
    "MemoryScheduler",
    "NamedLinkServer",
    "ProcessManager",
]
