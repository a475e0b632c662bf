"""repro — a reproduction of Presotto's *PUBLISHING: A Reliable
Broadcast Communication Mechanism* (UC Berkeley / SOSP 1983).

Public API highlights:

* :class:`repro.System` / :class:`repro.SystemConfig` — build a complete
  simulated publishing cluster (DEMOS/MP nodes + broadcast medium +
  recorder + recovery manager);
* :class:`repro.Program` / :class:`repro.GeneratorProgram` — the two
  deterministic program styles;
* :mod:`repro.publishing` — the recorder, checkpoint policies, the
  §3.2.3 recovery-time model, multi-recorder coordination;
* :mod:`repro.queueing` — the Chapter 5 queuing evaluation;
* :mod:`repro.costs` — the paper's numbers (Figure 5.2's hardware, the
  Chapter 5 kernel and recorder costs, Figure 3.1's recovery terms),
  which the simulated cluster and the queuing model both read;
* :mod:`repro.txn` — transactions over published communications (§6.4);
* :mod:`repro.debugger` — the replay debugger (§6.5).
"""

from repro.demos import (
    Control,
    DeliveredMessage,
    GeneratorProgram,
    Link,
    Message,
    MessageId,
    ProcessId,
    ProcessState,
    Program,
    ProgramRegistry,
    Recv,
    kernel_pid,
)
from repro.system import System, SystemConfig

__version__ = "1.0.0"

__all__ = [
    "Control",
    "DeliveredMessage",
    "GeneratorProgram",
    "Link",
    "Message",
    "MessageId",
    "ProcessId",
    "ProcessState",
    "Program",
    "ProgramRegistry",
    "Recv",
    "kernel_pid",
    "System",
    "SystemConfig",
    "__version__",
]
