"""Unit tests for the disk model, page buffer, stable storage, and
watchdog."""

import pytest

from repro.demos.messages import Control
from repro.errors import StorageError
from repro.publishing.disk import DiskArray, DiskModel, PageBuffer
from repro.publishing.stable_storage import StableStorage
from repro.publishing.watchdog import Watchdog
from repro.sim import Engine


class TestDiskModel:
    def test_op_time_is_latency_plus_transfer(self):
        engine = Engine()
        disk = DiskModel(engine)
        done = disk.submit("write", 4096)
        assert done == pytest.approx(3.0 + 4096 / 2000.0)

    def test_operations_serialize(self):
        engine = Engine()
        disk = DiskModel(engine)
        first = disk.submit("write", 2000)
        second = disk.submit("write", 2000)
        assert second == pytest.approx(2 * first)

    def test_completion_callback_fires_at_done_time(self):
        engine = Engine()
        disk = DiskModel(engine)
        fired = []
        disk.submit("read", 1000, on_done=lambda: fired.append(engine.now))
        engine.run()
        assert fired == [pytest.approx(3.5)]

    def test_counters(self):
        engine = Engine()
        disk = DiskModel(engine)
        disk.submit("write", 100)
        disk.submit("read", 200)
        assert disk.writes == 1 and disk.reads == 1
        assert disk.bytes_written == 100 and disk.bytes_read == 200

    def test_bad_op_rejected(self):
        disk = DiskModel(Engine())
        with pytest.raises(StorageError):
            disk.submit("erase", 100)
        with pytest.raises(StorageError):
            disk.submit("write", 0)

    def test_utilization(self):
        engine = Engine()
        disk = DiskModel(engine)
        disk.submit("write", 2000)      # 4 ms
        engine.run(until=8.0)
        assert disk.utilization(8.0) == pytest.approx(0.5)


class TestDiskArray:
    def test_least_busy_spindle_chosen(self):
        engine = Engine()
        array = DiskArray(engine, count=2)
        array.submit("write", 4000)
        array.submit("write", 4000)
        # Both spindles took one op each: aggregate time ≈ single op.
        assert array.disks[0].writes == 1
        assert array.disks[1].writes == 1

    def test_zero_disks_rejected(self):
        with pytest.raises(StorageError):
            DiskArray(Engine(), count=0)

    def test_utilization_is_mean(self):
        engine = Engine()
        array = DiskArray(engine, count=2)
        array.submit("write", 2000)     # 4 ms on one spindle
        engine.run(until=8.0)
        assert array.utilization(8.0) == pytest.approx(0.25)


class TestPageBuffer:
    def test_buffered_mode_coalesces(self):
        engine = Engine()
        array = DiskArray(engine, count=1)
        buffer = PageBuffer(array, buffered=True)
        for _ in range(31):
            buffer.add(128)             # 3968 bytes: under a page
        assert array.writes == 0
        buffer.add(128)                 # crosses 4096
        assert buffer.pages_flushed == 1
        assert array.writes == 1 and array.reads == 1   # compaction read

    def test_per_message_mode_writes_each(self):
        engine = Engine()
        array = DiskArray(engine, count=1)
        buffer = PageBuffer(array, buffered=False)
        for _ in range(5):
            buffer.add(128)
        assert array.writes == 5

    def test_flush_forces_partial_page(self):
        engine = Engine()
        array = DiskArray(engine, count=1)
        buffer = PageBuffer(array, buffered=True)
        buffer.add(100)
        buffer.flush()
        assert array.writes == 1
        buffer.flush()                  # nothing left
        assert array.writes == 1

    def test_max_fill_tracked(self):
        engine = Engine()
        buffer = PageBuffer(DiskArray(engine, 1), buffered=True)
        buffer.add(3000)
        assert buffer.max_fill == 3000


class TestStableStorage:
    def test_restart_counter_monotone(self):
        db = object()
        stable = StableStorage(db)
        assert stable.db is db
        assert stable.restart_number == 0
        assert stable.begin_restart() == 1
        assert stable.begin_restart() == 2
        assert stable.restart_number == 2


class TestWatchdog:
    def make(self, engine, timeout=1500.0):
        pings, crashes = [], []
        dog = Watchdog(engine, node_id=7,
                       send_ping=lambda n, c: pings.append((engine.now, c)),
                       on_crash=crashes.append,
                       ping_interval_ms=500.0, timeout_ms=timeout)
        return dog, pings, crashes

    def test_pings_periodically(self):
        engine = Engine()
        dog, pings, crashes = self.make(engine)
        dog.start()
        # Keep the dog fed so no crash fires.
        def feed():
            dog.note_reply(Control("alive_reply", {"node": 7}))
            engine.schedule(400.0, feed)
        engine.schedule(100.0, feed)
        engine.run(until=2600.0)
        assert len(pings) == 6          # t=0,500,...,2500
        assert crashes == []

    def test_silence_fires_once(self):
        engine = Engine()
        dog, pings, crashes = self.make(engine)
        dog.start()
        engine.run(until=5000.0)
        assert crashes == [7]           # fired exactly once (_fired latch)

    def test_reply_resets_latch(self):
        engine = Engine()
        dog, pings, crashes = self.make(engine)
        dog.start()
        engine.run(until=2100.0)
        assert crashes == [7]
        dog.note_reply(Control("alive_reply", {"node": 7}))
        engine.run(until=4500.0)
        assert crashes == [7, 7]        # silent again: fires again

    def test_reply_for_wrong_node_ignored(self):
        engine = Engine()
        dog, pings, crashes = self.make(engine)
        dog.start()
        def wrong():
            dog.note_reply(Control("alive_reply", {"node": 8}))
            engine.schedule(300.0, wrong)
        engine.schedule(100.0, wrong)
        engine.run(until=2500.0)
        assert crashes == [7]

    def test_stop_halts_pinging(self):
        engine = Engine()
        dog, pings, crashes = self.make(engine)
        dog.start()
        engine.run(until=600.0)
        dog.stop()
        count = len(pings)
        engine.run(until=5000.0)
        assert len(pings) == count
        assert crashes == []
