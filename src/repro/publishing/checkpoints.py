"""Checkpoint policies (§3.2.3, §3.2.4, §5.1).

Publishing makes checkpoints independent per process, so "checkpoint
frequencies [can] be specified on a per process basis". Three policies
from the thesis are provided:

* :class:`YoungIntervalPolicy` — John Young's first-order optimum,
  T_c = sqrt(2·T_s·T_f) (§3.2.4);
* :class:`RecoveryTimeBoundPolicy` — checkpoint whenever the §3.2.3
  t_max estimate exceeds the process's specified recovery bound;
* :class:`StorageBalancePolicy` — the queuing evaluation's policy:
  "a process is checkpointed whenever its published message storage
  exceeds its checkpoint size", balancing checkpoint cost against
  recorder disk space (§5.1).

Policies are attached to a kernel via :func:`install_policy`; they run
after every message delivery and decide per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro import costs
from repro.demos.ids import ProcessId
from repro.demos.kernel import MessageKernel
from repro.demos.process import ProcessControlRecord
from repro.errors import ConfigError
from repro.publishing.recovery_time import RecoveryTimeModel

#: the mean time between failures a :class:`YoungIntervalPolicy` assumes
#: when it is given none (a cluster's "young" policy)
MTBF_MS = 60_000.0


def young_interval(save_time: float, mtbf: float) -> float:
    """Young's first-order optimal checkpoint interval (§3.2.4).

    "Assuming that failures arrive exponentially, Young found that, as a
    first order approximation, [total checkpoint + recompute cost] can
    be minimized by choosing T_c = sqrt(2·T_s·T_f)" — ``save_time`` is
    the time to save one checkpoint and ``mtbf`` the mean time between
    failures, in any consistent unit.
    """
    if save_time <= 0 or mtbf <= 0:
        raise ConfigError("save time and MTBF must be positive")
    return math.sqrt(2.0 * save_time * mtbf)


class CheckpointPolicy:
    """Base class: decide whether to checkpoint a process right now."""

    def should_checkpoint(self, kernel: MessageKernel,
                          pcb: ProcessControlRecord) -> bool:
        raise NotImplementedError


@dataclass
class YoungIntervalPolicy(CheckpointPolicy):
    """Checkpoint every sqrt(2·T_s·T_f) ms of wall time.

    T_s is the time to load the process's state pages, t_page each
    (Figure 3.1).
    """

    mtbf_ms: float = MTBF_MS

    def interval_ms(self, pcb: ProcessControlRecord) -> float:
        save_ms = costs.T_PAGE_MS * pcb.state_pages
        return young_interval(save_ms, self.mtbf_ms)

    def should_checkpoint(self, kernel: MessageKernel,
                          pcb: ProcessControlRecord) -> bool:
        elapsed = kernel.engine.now - pcb.last_checkpoint_time
        return elapsed >= self.interval_ms(pcb)


@dataclass
class RecoveryTimeBoundPolicy(CheckpointPolicy):
    """Hold every process's t_max under its recovery-time bound (§3.2.3).

    "Each time a process receives a message or expends its time slice,
    the operating system can calculate its new process dependent
    parameters ... If the system checkpoints a process whenever its
    t_max exceeds its specified recovery time, the process can always be
    recovered in that amount of time."
    """

    model = RecoveryTimeModel()
    default_bound_ms: float = 2_000.0
    bounds: Dict[ProcessId, float] = field(default_factory=dict)

    def set_bound(self, pid: ProcessId, bound_ms: float) -> None:
        """Set one process's maximum recovery time."""
        self.bounds[pid] = bound_ms

    def estimate_t_max(self, pcb: ProcessControlRecord) -> float:
        return self.model.t_max_ms(
            checkpoint_pages=pcb.state_pages,
            message_count=pcb.msgs_since_checkpoint,
            message_bytes=pcb.replay_bytes_since_checkpoint,
            exec_ms_since_checkpoint=pcb.exec_ms_since_checkpoint,
        )

    def should_checkpoint(self, kernel: MessageKernel,
                          pcb: ProcessControlRecord) -> bool:
        bound = self.bounds.get(pcb.pid, self.default_bound_ms)
        return self.estimate_t_max(pcb) > bound


@dataclass
class StorageBalancePolicy(CheckpointPolicy):
    """§5.1's policy: checkpoint when the bytes of published messages
    accumulated since the last checkpoint exceed the checkpoint size."""

    def should_checkpoint(self, kernel: MessageKernel,
                          pcb: ProcessControlRecord) -> bool:
        checkpoint_bytes = pcb.state_pages * costs.CHECKPOINT_PAGE_BYTES
        return pcb.replay_bytes_since_checkpoint > checkpoint_bytes


def install_policy(kernel: MessageKernel, policy: CheckpointPolicy,
                   only: Optional[Callable[[ProcessControlRecord], bool]] = None) -> None:
    """Attach a checkpoint policy to a kernel.

    The policy is evaluated after every message delivery; ``only`` can
    restrict it (e.g. skip system processes). Processes whose programs
    cannot be snapshotted are skipped automatically by
    ``checkpoint_process``.
    """

    def after_delivery(pcb: ProcessControlRecord) -> None:
        if only is not None and not only(pcb):
            return
        if not pcb.recoverable:
            return
        if policy.should_checkpoint(kernel, pcb):
            kernel.checkpoint_process(pcb.pid)

    kernel.after_delivery = after_delivery
