"""Figures 6.3/6.4 — the token ring with a recorder acknowledge field.

Figure 6.3 is a plain ring slot; Figure 6.4 adds the acknowledge field:
"Messages that have an empty acknowledge field are ignored by all nodes
except the recorder. When the message passes the recorder, the recorder
fills the acknowledge field and reads the message. ... If the recorder
could not successfully read it, neither will the receiver due to the
invalidated checksum."
"""

import pytest

from repro.net.faults import FaultPlan
from repro.net.frames import Frame, FrameKind
from repro.net.media import NetworkInterface
from repro.net.token_ring import TokenRing
from repro.sim import Engine

from conftest import once, print_table

STATIONS = 5


def run_ring(with_recorder, messages=40, recorder_miss_every=0):
    engine = Engine()
    faults = FaultPlan()
    ring = TokenRing(engine, faults=faults,
                     enforce_recorder_ack=with_recorder)
    received = [0]

    def count(frame):
        if frame.kind is FrameKind.DATA:
            received[0] += 1

    for station in range(1, STATIONS + 1):
        ring.attach(NetworkInterface(station, count))
    recorded = [0]
    if with_recorder:
        ring.attach(NetworkInterface(
            99, lambda f: recorded.__setitem__(0, recorded[0] + 1),
            is_recorder=True))
    if recorder_miss_every:
        for k in range(0, messages, recorder_miss_every):
            faults.corrupt_next(lambda f, node: node == 99, count=1)
    for i in range(messages):
        src = 1 + i % STATIONS
        dst = 1 + (i + 2) % STATIONS
        frame = Frame(kind=FrameKind.DATA, src_node=src, dst_node=dst,
                      payload=("ring", i), size_bytes=256)
        engine.schedule(i * 2.0, ring.interfaces[src - 1].send, frame)
    engine.run(until=10_000)
    return {
        "received": received[0],
        "recorded": recorded[0],
        "invalidated": ring.frames_invalidated.value,
        "busy_ms": ring.stats.busy_time_ms.value,
    }


def test_fig_6_3_plain_ring(benchmark):
    result = once(benchmark, run_ring, False)
    print_table("Figure 6.3 — a message in a ring (no recorder)",
                ["messages sent", "messages received"],
                [[40, result["received"]]])
    assert result["received"] == 40


def test_fig_6_4_ring_with_acknowledge_field(benchmark):
    def both():
        return run_ring(True), run_ring(True, recorder_miss_every=8)

    clean, lossy = once(benchmark, both)
    print_table("Figure 6.4 — token ring with acknowledge field",
                ["scenario", "received", "recorded", "invalidated"],
                [["recorder healthy", clean["received"], clean["recorded"],
                  clean["invalidated"]],
                 ["recorder misses 1 in 8", lossy["received"],
                  lossy["recorded"], lossy["invalidated"]]])
    assert clean["received"] == 40
    assert clean["recorded"] == 40          # everything published
    # Every frame the recorder missed was invalidated and not received.
    assert lossy["invalidated"] == 5
    assert lossy["received"] == 40 - 5


def test_ring_ack_field_cost(benchmark):
    """The acknowledge field costs ring passes: messages to stations
    upstream of the recorder circulate twice."""
    def both():
        return run_ring(False), run_ring(True)

    plain, acked = once(benchmark, both)
    print_table("Ring occupancy with and without the recorder",
                ["configuration", "ring busy (ms)"],
                [["plain ring", f"{plain['busy_ms']:.1f}"],
                 ["with acknowledge field", f"{acked['busy_ms']:.1f}"]])
    assert acked["busy_ms"] >= plain["busy_ms"]
