"""§4.3.3's anticipated optimization — the windowing scheme.

"This scheme is inefficient when message traffic is high. It will be
replaced in the future by a windowing scheme that will continue to
preserve message ordering." The thesis never built it; we did.

Two regimes are measured. On a zero-latency LAN, stop-and-wait already
saturates the bus and windowing is pure parity — an honest negative
result. With delivery latency (receiver processing, a longer link),
stop-and-wait idles the bus for a full latency per message and the
window recovers the lost throughput, ordering untouched.
"""

import pytest

from repro.net.media import PerfectBroadcast
from repro.net.transport import Transport, TransportConfig
from repro.sim import Engine

from conftest import once, print_table

MESSAGES = 200
BYTES = 1000


def bulk_transfer_time(window, ack_latency_ms=0.0):
    engine = Engine()
    medium = PerfectBroadcast(engine, ack_latency_ms=ack_latency_ms)
    got = []
    done_at = [0.0]

    def receive(segment):
        got.append(segment.body)
        done_at[0] = engine.now

    cfg = TransportConfig(window=window)
    t1 = Transport(engine, medium, 1, lambda s: None, cfg)
    t2 = Transport(engine, medium, 2, receive, cfg)
    for i in range(MESSAGES):
        t1.send(2, i, BYTES, uid=("bulk", i))
    engine.run()
    assert got == list(range(MESSAGES)), "ordering must be preserved"
    return done_at[0]


def test_windowing_parity_on_zero_latency_lan(benchmark):
    def sweep():
        return [(w, bulk_transfer_time(w, 0.0)) for w in (1, 4, 16)]

    rows = once(benchmark, sweep)
    base = rows[0][1]
    print_table(
        f"§4.3.3 windowing on a zero-latency LAN — {MESSAGES} × {BYTES} B",
        ["window", "elapsed (sim ms)", "vs stop-and-wait"],
        [[w, f"{t:.1f}", f"{base / t:.2f}x"] for w, t in rows])
    # The bus is already saturated by stop-and-wait: parity, by design.
    for _, t in rows:
        assert t == pytest.approx(base, rel=0.02)


def test_windowing_speedup_with_delivery_latency(benchmark):
    latency = 5.0

    def sweep():
        return [(w, bulk_transfer_time(w, latency)) for w in (1, 2, 4, 8, 16)]

    rows = once(benchmark, sweep)
    base = rows[0][1]
    print_table(
        f"§4.3.3 windowing with {latency:.0f} ms delivery latency — "
        f"{MESSAGES} × {BYTES} B",
        ["window", "elapsed (sim ms)", "speedup vs stop-and-wait"],
        [[w, f"{t:.1f}", f"{base / t:.2f}x"] for w, t in rows])
    times = [t for _, t in rows]
    assert times[1] < times[0]
    assert times[2] < times[1]
    # Large windows hide the latency almost completely.
    assert base / times[-1] > 2.0
