"""The recorder's disk subsystem.

Hardware parameters come from Figure 5.2 (:mod:`repro.costs`): 3 ms
latency and a 2 MB/s transfer rate. The queuing evaluation found that
writing one message per disk operation saturates the disk at the
maximum long-message rate, and that "this saturation was removed by
allowing messages to be written out in 4k byte buffers rather than
forcing one disk write per message" (§5.1) — both modes are supported so
the benches can show the contrast.

Compaction follows §4.5: "Before allocating a buffer to a disk page, the
disk page is read in. Any messages that are no longer valid are removed
and the buffer is compacted."
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import costs
from repro.errors import StorageError
from repro.sim.engine import Engine


class DiskModel:
    """One serialized disk with busy-time and stall-time accounting.

    ``busy_ms`` counts only time the platter is actually servicing an
    operation; ``stall_ms`` counts the wall-clock windows during which
    the controller was frozen by :meth:`stall`, and ``stall_wait_ms``
    the operation time spent queued behind those windows. The split
    keeps :meth:`utilization` honest under chaos injection — a stalled
    disk is *not* busy, it is stalled, and the two read differently on
    the metrics spine.
    """

    def __init__(self, engine: Engine, name: str = "disk0"):
        self.engine = engine
        self.name = name
        self._busy_until = 0.0
        self.busy_ms = 0.0
        self.reads = 0
        self.writes = 0
        self.bytes_written = 0
        self.bytes_read = 0
        #: chaos hooks: a degraded spindle multiplies every operation
        #: time; a stalled one accepts operations but starts none before
        #: the stall lifts (a controller hiccup, a bus reset).
        self.slowdown = 1.0
        self.stalled_until = 0.0
        #: total wall-clock time covered by stall windows
        self.stall_ms = 0.0
        #: operation start delay attributable to stalls (not to the
        #: disk being genuinely busy with earlier operations)
        self.stall_wait_ms = 0.0

    def stall(self, duration_ms: float) -> float:
        """Freeze the disk for ``duration_ms``; queued and newly
        submitted operations start only after the stall lifts. Returns
        the time the stall ends. Overlapping stalls extend the window,
        and only the extension counts toward ``stall_ms``."""
        end = self.engine.now + duration_ms
        current = max(self.stalled_until, self.engine.now)
        if end > current:
            self.stall_ms += end - current
            self.stalled_until = end
        return self.stalled_until

    def submit(self, op: str, size_bytes: int,
               on_done: Optional[Callable[[], None]] = None) -> float:
        """Queue a read or write; returns its completion time."""
        if op not in ("read", "write"):
            raise StorageError(f"unknown disk op {op!r}")
        if size_bytes <= 0:
            raise StorageError("disk operations must move at least one byte")
        duration = costs.disk_op_ms(size_bytes) * self.slowdown
        ready = max(self.engine.now, self._busy_until)
        start = max(ready, self.stalled_until)
        if start > ready:
            # The stall, not earlier work, is what holds this op back:
            # account the wait as stalled time, never as busy time.
            self.stall_wait_ms += start - ready
        self._busy_until = start + duration
        self.busy_ms += duration
        if op == "read":
            self.reads += 1
            self.bytes_read += size_bytes
        else:
            self.writes += 1
            self.bytes_written += size_bytes
        if on_done is not None:
            self.engine.schedule_at(self._busy_until, on_done)
        return self._busy_until

    def utilization(self, elapsed_ms: float) -> float:
        """Fraction of elapsed time the disk spent servicing operations
        (stall windows excluded: ``stall_ms`` counts those)."""
        if elapsed_ms <= 0:
            return 0.0
        return min(1.0, self.busy_ms / elapsed_ms)


class DiskArray:
    """1-3 disks at the publishing node (the Figure 5.5 sweep axis).

    Operations go to the least-busy disk, matching the model's
    assumption that message pages stripe across the available spindles.
    """

    def __init__(self, engine: Engine, count: int = 1):
        if count < 1:
            raise StorageError("a disk array needs at least one disk")
        self.engine = engine
        self.disks = [DiskModel(engine, name=f"disk{i}")
                      for i in range(count)]

    def submit(self, op: str, size_bytes: int,
               on_done: Optional[Callable[[], None]] = None) -> float:
        disk = min(self.disks, key=lambda d: d._busy_until)
        return disk.submit(op, size_bytes, on_done)

    # -- chaos hooks ---------------------------------------------------
    def set_slowdown(self, factor: float) -> None:
        """Degrade (or restore, with 1.0) every spindle's service time."""
        if factor <= 0:
            raise StorageError("slowdown factor must be positive")
        for disk in self.disks:
            disk.slowdown = factor

    def stall(self, duration_ms: float) -> float:
        """Freeze every spindle for ``duration_ms`` (array-wide
        controller stall); returns the time the stall ends."""
        return max(disk.stall(duration_ms) for disk in self.disks)

    def utilization(self, elapsed_ms: float) -> float:
        """Mean utilization across the spindles."""
        if not self.disks:
            return 0.0
        return sum(d.utilization(elapsed_ms) for d in self.disks) / len(self.disks)

    @property
    def writes(self) -> int:
        return sum(d.writes for d in self.disks)

    @property
    def reads(self) -> int:
        return sum(d.reads for d in self.disks)

    @property
    def busy_ms(self) -> float:
        return sum(d.busy_ms for d in self.disks)

    @property
    def stall_ms(self) -> float:
        return sum(d.stall_ms for d in self.disks)

    @property
    def stall_wait_ms(self) -> float:
        return sum(d.stall_wait_ms for d in self.disks)


class PageBuffer:
    """The recorder's group-commit message buffer (§4.5, §5.1).

    In ``buffered`` mode, staged bytes from *all* processes coalesce
    into shared pages: a page write is issued when 4 KB fill, or — when
    ``flush_deadline_ms`` is set — when the oldest staged byte has
    waited that long, whichever comes first. One disk operation thus
    absorbs many messages under load while the deadline bounds how long
    a lone message can sit unflushed. In per-message mode every message
    costs a full disk operation (the §5.1 saturation contrast).

    The buffer is ordinary recorder memory, not battery-backed: a
    recorder crash loses exactly the staged bytes that have not reached
    a disk (:meth:`crash`), which is why callers treat disk completion —
    not staging — as the durability point.
    """

    def __init__(self, disks: DiskArray, buffered: bool = True,
                 flush_deadline_ms: Optional[float] = None):
        self.disks = disks
        self.buffered = buffered
        self.flush_deadline_ms = flush_deadline_ms
        self._fill = 0
        self._deadline_handle = None
        self.pages_flushed = 0
        self.deadline_flushes = 0
        self.max_fill = 0
        self.bytes_lost = 0

    def add(self, size_bytes: int) -> None:
        """Stage one recorded message and write when a page fills."""
        if not self.buffered:
            self.disks.submit("write", size_bytes)
            return
        self._fill += size_bytes
        self.max_fill = max(self.max_fill, self._fill)
        page_bytes = costs.DISK_PAGE_BYTES
        while self._fill >= page_bytes:
            # §4.5 compaction: the page is read in, invalid messages are
            # dropped, then the compacted page is written back.
            self.disks.submit("read", page_bytes)
            self.disks.submit("write", page_bytes)
            self._fill -= page_bytes
            self.pages_flushed += 1
        if self._fill == 0:
            self._cancel_deadline()
        elif self.flush_deadline_ms is not None and self._deadline_handle is None:
            self._deadline_handle = self.disks.engine.schedule(
                self.flush_deadline_ms, self._deadline_fire)

    def flush(self) -> None:
        """Force out a partial page (checkpoint barrier)."""
        if self.buffered and self._fill > 0:
            self.disks.submit("write", self._fill)
            self._fill = 0
            self.pages_flushed += 1
        self._cancel_deadline()

    def crash(self) -> int:
        """The recorder died: staged bytes that never reached a disk
        are gone. Returns how many were lost."""
        lost = self._fill
        self.bytes_lost += lost
        self._fill = 0
        self._cancel_deadline()
        return lost

    def _deadline_fire(self) -> None:
        self._deadline_handle = None
        if self._fill > 0:
            self.deadline_flushes += 1
            self.flush()

    def _cancel_deadline(self) -> None:
        if self._deadline_handle is not None:
            self._deadline_handle.cancel()
            self._deadline_handle = None
