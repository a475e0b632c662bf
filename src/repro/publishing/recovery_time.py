"""The recovery-time model of §3.2.3.

    t_max = t_reload + t_replay + t_compute
          = t_cfix + t_page·l_check
          + t_mfix·(n_t − n_t0) + t_byte·Σ l_msg
          + (t − t0)/f_cpu

The thesis's worked example (Figure 3.1) uses t_cfix = 100 ms,
t_mfix = 2 ms, t_page = 10 ms/page, t_byte = 0.01 ms/byte, f_cpu = 0.5
and a 4-page checkpoint, giving 140 ms immediately after the checkpoint,
340 ms after 100 ms of computation, and 340 + 2 + 0.01·l ms after one
further message of length l.

The same model drives the :class:`RecoveryTimeBoundPolicy`: "if the
system checkpoints a process whenever its t_max exceeds its specified
recovery time, the process can always be recovered in that amount of
time."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigError


@dataclass(frozen=True)
class RecoveryTimeParams:
    """Load-dependent parameters, "determined empirically by measuring
    the system under various loads" — defaults are Figure 3.1's."""

    t_cfix_ms: float = 100.0        # fixed table-building time per process
    t_page_ms: float = 10.0         # per checkpoint page loaded
    t_mfix_ms: float = 2.0          # per replayed message, fixed
    t_byte_ms: float = 0.01         # per replayed byte
    f_cpu: float = 0.5              # CPU fraction available while recovering

    def __post_init__(self) -> None:
        if not 0 < self.f_cpu <= 1:
            raise ConfigError(f"f_cpu must be in (0, 1], got {self.f_cpu}")


class RecoveryTimeModel:
    """Computes t_max and its components for a process."""

    def __init__(self, params: RecoveryTimeParams = RecoveryTimeParams()):
        self.params = params

    # -- components -------------------------------------------------------
    def t_reload_ms(self, checkpoint_pages: int) -> float:
        """Time to rebuild tables and load the checkpoint."""
        return self.params.t_cfix_ms + self.params.t_page_ms * checkpoint_pages

    def t_replay_ms(self, message_count: int, message_bytes: int) -> float:
        """Time to look up and re-send the published messages."""
        return (self.params.t_mfix_ms * message_count
                + self.params.t_byte_ms * message_bytes)

    def t_compute_ms(self, exec_ms_since_checkpoint: float) -> float:
        """Time to re-execute from the checkpoint to the crash point."""
        return exec_ms_since_checkpoint / self.params.f_cpu

    # -- the bound ----------------------------------------------------------
    def t_max_ms(self, checkpoint_pages: int, message_count: int,
                 message_bytes: int, exec_ms_since_checkpoint: float) -> float:
        """The §3.2.3 upper bound on recovery time (serial execution of
        reload, replay, and recompute)."""
        return (self.t_reload_ms(checkpoint_pages)
                + self.t_replay_ms(message_count, message_bytes)
                + self.t_compute_ms(exec_ms_since_checkpoint))

    def t_max_for_messages(self, checkpoint_pages: int,
                           message_lengths: Iterable[int],
                           exec_ms_since_checkpoint: float) -> float:
        """Convenience form taking individual message lengths (the sum
        in the thesis's formula)."""
        lengths = list(message_lengths)
        return self.t_max_ms(checkpoint_pages, len(lengths), sum(lengths),
                             exec_ms_since_checkpoint)


def figure_3_1_example() -> dict:
    """Reproduce the worked example of Figure 3.1.

    Returns the three t_max values the thesis computes: right after the
    4-page checkpoint, after 100 ms of computation, and after receiving
    one further 200-byte message.
    """
    model = RecoveryTimeModel(RecoveryTimeParams())
    after_checkpoint = model.t_max_ms(4, 0, 0, 0.0)
    after_compute = model.t_max_ms(4, 0, 0, 100.0)
    message_len = 200
    after_message = model.t_max_ms(4, 1, message_len, 100.0)
    return {
        "after_checkpoint_ms": after_checkpoint,   # 140 ms
        "after_compute_ms": after_compute,         # 340 ms
        "after_message_ms": after_message,         # 344 ms for a 200 B msg
        "message_bytes": message_len,
    }
