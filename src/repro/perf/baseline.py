"""The pre-optimization recorder store, kept as a reference
implementation.

:class:`FlatProcessLog` is the naive flat-list shape the log-structured
engine replaced — one ever-growing arrivals list, full-rescan
``messages_to_replay``, and ``consumed_ids`` that re-simulates the queue
from process creation on every call. ``tests/test_store_equivalence.py``
drives identical operation sequences through this and
:class:`repro.publishing.database.ProcessRecord` and requires identical
answers; ``benchmarks/test_recorder_store_scaling.py`` times the two.
Nothing under ``src/`` calls it.

Do not optimize this module: its slowness is the point.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set, Tuple

from repro.errors import RecorderError


class FlatLogged:
    """One logged message in the naive store: a plain mutable record."""

    __slots__ = ("message", "arrival_index", "invalid")

    def __init__(self, message: Any, arrival_index: int):
        self.message = message
        self.arrival_index = arrival_index
        self.invalid = False


class FlatProcessLog:
    """The naive flat-list process log (pre-optimization reference).

    Semantics are byte-identical to
    :class:`repro.publishing.database.ProcessRecord` — consumption
    order, the advisory-mismatch error, the cumulative-checkpoint
    invalidation rule and its jump-ahead quirk — but every query pays
    the naive price: ``consumed_ids`` re-simulates the queue from
    process creation, ``messages_to_replay`` rescans the whole arrivals
    list, and nothing is ever reclaimed.
    """

    def __init__(self) -> None:
        self.arrivals: List[FlatLogged] = []
        self.advisories: List[Tuple[Any, Any]] = []
        self._ckpt_consumed_done = 0
        self._ckpt_ctrl_done = 0

    def record_message(self, message: Any, arrival_index: int) -> FlatLogged:
        lm = FlatLogged(message, arrival_index)
        self.arrivals.append(lm)
        return lm

    def add_advisory(self, read_id: Any, head_id: Any) -> None:
        self.advisories.append((read_id, head_id))

    # ------------------------------------------------------------------
    def _simulate(self, target: int) -> List[FlatLogged]:
        """Re-run the queue simulation from scratch up to ``target``
        consumptions (or queue exhaustion); returns the consumed
        records in consumption order."""
        queue = [lm for lm in self.arrivals
                 if not lm.message.deliver_to_kernel
                 and not lm.message.recovery_marker]
        consumed: List[FlatLogged] = []
        cursor = 0
        while len(consumed) < target and queue:
            if (cursor < len(self.advisories)
                    and self.advisories[cursor][1] == queue[0].message.msg_id):
                read_id = self.advisories[cursor][0]
                for index, lm in enumerate(queue):
                    if lm.message.msg_id == read_id:
                        del queue[index]
                        break
                else:
                    raise RecorderError(
                        f"advisory for {read_id} does not match the log")
                cursor += 1
            else:
                lm = queue.pop(0)
            consumed.append(lm)
        return consumed

    def consumed_ids(self, consumed_count: int) -> Set[Any]:
        return {lm.message.msg_id for lm in self._simulate(consumed_count)}

    def apply_checkpoint(self, consumed: int, dtk_processed: int = 0) -> int:
        """Invalidate the messages a checkpoint's state already covers;
        counts are cumulative, and ordinals first covered by an earlier
        checkpoint are never revisited (the jump-ahead quirk)."""
        order = self._simulate(consumed)
        invalidated = 0
        start = self._ckpt_consumed_done
        for ordinal, lm in enumerate(order):
            if ordinal < start:
                continue
            if not lm.invalid:
                lm.invalid = True
                invalidated += 1
        self._ckpt_consumed_done = max(start, consumed)
        start = self._ckpt_ctrl_done
        controls = [lm for lm in self.arrivals if lm.message.deliver_to_kernel]
        for ordinal, lm in enumerate(controls):
            if ordinal >= dtk_processed:
                break
            if ordinal < start:
                continue
            if not lm.invalid:
                lm.invalid = True
                invalidated += 1
        self._ckpt_ctrl_done = max(start, dtk_processed)
        return invalidated

    def messages_to_replay(self) -> List[FlatLogged]:
        """Full rescan: every valid record, in arrival order."""
        return [lm for lm in self.arrivals if not lm.invalid]

    def first_valid_id(self) -> Optional[Any]:
        for lm in self.arrivals:
            if not lm.invalid and not lm.message.recovery_marker:
                return lm.message.msg_id
        return None

    def valid_message_bytes(self) -> int:
        return sum(lm.message.size_bytes for lm in self.arrivals
                   if not lm.invalid)
