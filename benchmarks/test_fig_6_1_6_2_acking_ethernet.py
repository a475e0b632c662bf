"""Figures 6.1/6.2 — standard vs Acknowledging Ethernet.

"When the network is not busy ... both the standard and Acknowledging
Ethernets behave in much the same way" (Figure 6.1). "On the normal
Ethernet this acknowledge, with high probability, will collide with a
transmission from some other node ... In the acknowledging Ethernet,
the network will be reserved following a message for that message's
acknowledgement. Therefore, there will be fewer collisions and the
network will be better utilized" (Figure 6.2).
"""

import pytest

from repro.net.acking_ethernet import AckingEthernet
from repro.net.ethernet import CsmaEthernet
from repro.net.frames import Frame, FrameKind
from repro.net.media import NetworkInterface
from repro.sim import Engine, RngStreams

from conftest import once, print_table

STATIONS = 6
DURATION_MS = 300.0


def run_load(medium_cls, interarrival_ms, seed=11):
    engine = Engine()
    rng = RngStreams(seed)
    if medium_cls is CsmaEthernet:
        medium = medium_cls(engine, rng, auto_ack=True)
    else:
        medium = medium_cls(engine, rng)
    delivered = [0]

    def count_data(frame):
        if frame.kind is FrameKind.DATA:
            delivered[0] += 1

    for station in range(1, STATIONS + 1):
        medium.attach(NetworkInterface(station, count_data))
    count = int(DURATION_MS / interarrival_ms)
    for i in range(count):
        src = 1 + i % STATIONS
        dst = 1 + (i + 1) % STATIONS
        frame = Frame(kind=FrameKind.DATA, src_node=src, dst_node=dst,
                      payload=("load", i), size_bytes=256)
        engine.schedule(i * interarrival_ms,
                        medium.interfaces[src - 1].send, frame)
    engine.run(until=DURATION_MS * 3)
    return {
        "offered": count,
        "delivered": delivered[0],
        "collisions": medium.stats.collisions.value,
        "ack_collisions": medium.ack_collisions.value,
        "utilization": medium.stats.utilization(engine.now),
    }


def test_fig_6_1_light_load_equivalence(benchmark):
    """Figure 6.1: lightly loaded — the variants behave alike."""
    def both():
        return (run_load(CsmaEthernet, interarrival_ms=10.0),
                run_load(AckingEthernet, interarrival_ms=10.0))

    standard, acking = once(benchmark, both)
    print_table("Figure 6.1 — lightly loaded network",
                ["medium", "frames offered", "delivered", "collisions",
                 "ack collisions"],
                [["standard Ethernet", standard["offered"],
                  standard["delivered"], standard["collisions"],
                  standard["ack_collisions"]],
                 ["Acknowledging Ethernet", acking["offered"],
                  acking["delivered"], acking["collisions"],
                  acking["ack_collisions"]]])
    assert standard["delivered"] == standard["offered"]
    assert acking["delivered"] == acking["offered"]
    assert standard["collisions"] <= 4   # essentially collision-free


def test_fig_6_2_heavy_load_ack_collisions(benchmark):
    """Figure 6.2: heavily loaded — contending acknowledgements collide
    on the standard Ethernet, never on the acking one."""
    def both():
        return (run_load(CsmaEthernet, interarrival_ms=0.45),
                run_load(AckingEthernet, interarrival_ms=0.45))

    standard, acking = once(benchmark, both)
    print_table("Figure 6.2 — heavily loaded network",
                ["medium", "collisions", "ack collisions", "utilization"],
                [["standard Ethernet", standard["collisions"],
                  standard["ack_collisions"],
                  f"{100 * standard['utilization']:.1f}%"],
                 ["Acknowledging Ethernet", acking["collisions"],
                  acking["ack_collisions"],
                  f"{100 * acking['utilization']:.1f}%"]])
    assert standard["ack_collisions"] > 0
    assert acking["ack_collisions"] == 0
    assert acking["collisions"] < standard["collisions"]
