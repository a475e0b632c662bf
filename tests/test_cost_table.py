"""One cost table: the simulator and the §5.1 queueing model read the
same entry, so changing it moves both (``repro.costs``).

The checkpoint page has its own case in ``test_recovery_e2e.py``
(``test_recovery_reads_the_checkpoint_at_the_size_it_was_written``): a
2048-byte page moves the recorder's write and recovery's read.
"""

import pytest

from repro import costs
from repro.net.media import PerfectBroadcast
from repro.publishing.disk import DiskModel
from repro.queueing import OPERATING_POINTS, OpenQueueingModel
from repro.queueing.model import wire_ms
from repro.sim.engine import Engine


def disk_op(size_bytes):
    """A lone operation's service time on a fresh simulated disk."""
    return DiskModel(Engine()).submit("write", size_bytes)


def model_disk_ms(buffered):
    model = OpenQueueingModel(point=OPERATING_POINTS["mean"],
                              buffered_writes=buffered)
    return model.disk_load().mean_service_ms


def test_disk_latency_moves_the_disk_and_the_model_together(monkeypatch):
    before = (disk_op(1024), model_disk_ms(False), model_disk_ms(True))
    monkeypatch.setattr(costs, "DISK_LATENCY_MS", costs.DISK_LATENCY_MS + 7.0)
    after = (disk_op(1024), model_disk_ms(False), model_disk_ms(True))
    # one operation, and the model's per-message write, each pay 7 ms more
    assert after[0] - before[0] == pytest.approx(7.0)
    assert after[1] - before[1] == pytest.approx(7.0)
    # a buffered byte pays its share of one more page write
    assert after[2] > before[2]


def test_bandwidth_moves_the_medium_and_the_model_together(monkeypatch):
    medium = PerfectBroadcast(Engine())
    before = (medium.tx_time_ms(1000), wire_ms(1000))
    monkeypatch.setattr(costs, "BANDWIDTH_BPS", costs.BANDWIDTH_BPS // 2)
    after = (medium.tx_time_ms(1000), wire_ms(1000))
    # half the bandwidth: every bit on the wire takes twice as long
    assert after[0] - before[0] == pytest.approx(0.8)
    assert after[1] - before[1] == pytest.approx(
        (1000 + costs.HEADER_BYTES) * 8 / 10_000_000 * 1000.0)
