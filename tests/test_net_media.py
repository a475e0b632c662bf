"""Tests for the broadcast bus and the recorder-acknowledgement rule."""

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.net.media
from repro.errors import NetworkError
from repro.net.faults import FaultPlan
from repro.net.frames import BROADCAST, Frame, FrameKind
from repro.net.media import NetworkInterface, PerfectBroadcast
from repro.sim import Engine

from fixtures import count_calls, scan_takers


def data_frame(src, dst, payload="p", size=128):
    return Frame(kind=FrameKind.DATA, src_node=src, dst_node=dst,
                 payload=payload, size_bytes=size)


def build_bus(engine, node_ids=(1, 2), with_recorder=False, enforce=False,
              faults=None):
    bus = PerfectBroadcast(engine, faults=faults or FaultPlan(),
                           enforce_recorder_ack=enforce)
    inboxes = {}
    for node in node_ids:
        inboxes[node] = []
        bus.attach(NetworkInterface(node, inboxes[node].append))
    recorder_box = []
    if with_recorder:
        bus.attach(NetworkInterface(99, recorder_box.append, is_recorder=True))
    return bus, inboxes, recorder_box


def test_unicast_reaches_destination_only():
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2, 3))
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert len(inboxes[2]) == 1
    assert inboxes[3] == [] and inboxes[1] == []


def test_broadcast_reaches_everyone_but_sender():
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2, 3))
    bus.interfaces[0].send(data_frame(1, BROADCAST))
    engine.run()
    assert len(inboxes[2]) == 1 and len(inboxes[3]) == 1
    assert inboxes[1] == []


def test_self_addressed_frame_loops_back():
    """Published intranode messages travel the wire and return (§4.4.1)."""
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2))
    bus.interfaces[0].send(data_frame(1, 1))
    engine.run()
    assert len(inboxes[1]) == 1


def test_recorder_overhears_all_traffic():
    engine = Engine()
    bus, inboxes, recorded = build_bus(engine, (1, 2), with_recorder=True)
    bus.interfaces[0].send(data_frame(1, 2))
    bus.interfaces[1].send(data_frame(2, 1))
    engine.run()
    assert len(recorded) == 2


def test_frames_serialize_on_the_bus():
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2))
    arrival_times = []
    bus.interfaces[1].on_frame = lambda f: arrival_times.append(engine.now)
    bus.interfaces[0].send(data_frame(1, 2, size=1000))
    bus.interfaces[0].send(data_frame(1, 2, size=1000))
    engine.run()
    assert len(arrival_times) == 2
    assert arrival_times[1] >= 2 * bus.tx_time_ms(1000) - 1e-9


def test_recorder_miss_blocks_data_frame_when_enforced():
    """A frame the recorder misses must not be usable (§6.1)."""
    engine = Engine()
    faults = FaultPlan()
    faults.corrupt_next(lambda f, node: node == 99)
    bus, inboxes, recorded = build_bus(engine, (1, 2), with_recorder=True,
                                       enforce=True, faults=faults)
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert inboxes[2] == []
    assert bus.stats.recorder_misses.value == 1


def test_downed_recorder_stalls_all_data():
    engine = Engine()
    bus, inboxes, recorded = build_bus(engine, (1, 2), with_recorder=True,
                                       enforce=True)
    recorder_iface = bus.recorders()[0]
    recorder_iface.up = False
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert inboxes[2] == []


def test_no_recorder_attached_means_no_gating():
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2), enforce=True)
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert len(inboxes[2]) == 1


def test_delivered_frames_carry_recorder_ack_flag():
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2), with_recorder=True, enforce=True)
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert inboxes[2][0].recorder_acked


def test_sender_gets_delivery_ack():
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2))
    acks = []
    bus.interfaces[0].on_delivered = lambda f, ok: acks.append(ok)
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert acks == [True]


def test_sender_gets_negative_ack_for_down_receiver():
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2))
    acks = []
    bus.interfaces[0].on_delivered = lambda f, ok: acks.append(ok)
    bus.interfaces[1].up = False
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert acks == [False]


def test_duplicate_node_id_rejected():
    engine = Engine()
    bus, _, _ = build_bus(engine, (1,))
    with pytest.raises(NetworkError):
        bus.attach(NetworkInterface(1, lambda f: None))


def test_accept_extra_is_fixed_while_the_station_is_attached():
    """The medium reads a station's claims once, at attach: a later
    assignment used to be silently ignored and is now refused."""
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1,))
    gateway_box = []
    gateway = NetworkInterface(7, gateway_box.append)
    gateway.accept_extra = {50}.__contains__       # before attach: honoured
    bus.attach(gateway)
    bus.interfaces[0].send(data_frame(1, 50))
    engine.run()
    assert [f.dst_node for f in gateway_box] == [50]
    with pytest.raises(NetworkError, match="accept_extra"):
        gateway.accept_extra = {60}.__contains__
    bus.detach(gateway)
    gateway.accept_extra = None                    # off the medium again


def test_multi_recorder_requires_all_healthy_recorders():
    """§6.3: every healthy recorder must store the frame."""
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2), enforce=True)
    rec_a, rec_b = [], []
    bus.attach(NetworkInterface(90, rec_a.append, is_recorder=True))
    bus.attach(NetworkInterface(91, rec_b.append, is_recorder=True))
    faults = bus.faults
    faults.corrupt_next(lambda f, node: node == 91)
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert inboxes[2] == []          # recorder 91 missed it → unusable

    bus.interfaces[0].send(data_frame(1, 2, payload="second"))
    engine.run()
    assert len(inboxes[2]) == 1      # both recorded → delivered


def test_down_recorder_ack_supplied_by_survivor():
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2), enforce=True)
    rec_a, rec_b = [], []
    a = NetworkInterface(90, rec_a.append, is_recorder=True)
    b = NetworkInterface(91, rec_b.append, is_recorder=True)
    bus.attach(a)
    bus.attach(b)
    b.up = False
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert len(inboxes[2]) == 1      # survivor's ack suffices


def test_utilization_accounting():
    engine = Engine()
    bus, _, _ = build_bus(engine, (1, 2))
    bus.interfaces[0].send(data_frame(1, 2, size=1250))   # 1 ms on wire
    engine.run()
    elapsed = engine.now
    assert bus.stats.busy_time_ms.value == pytest.approx(bus.tx_time_ms(1250))
    assert 0 < bus.stats.utilization(elapsed) <= 1.0


def test_down_recorder_copy_is_counted_and_surfaced():
    """Bugfix regression: a crashed recorder's missing copy must not be
    a silent ``continue`` — the survivor still acks (§6.3), but the log
    hole is counted and flagged as a ``recorder_copy_missed`` event."""
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2), enforce=True)
    rec_a, rec_b = [], []
    a = NetworkInterface(90, rec_a.append, is_recorder=True)
    b = NetworkInterface(91, rec_b.append, is_recorder=True)
    bus.attach(a)
    bus.attach(b)
    b.up = False
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert len(inboxes[2]) == 1             # delivered, not wedged
    assert bus.stats.recorder_copies_missed.value == 1
    flagged = [e for e in bus.obs.bus.events
               if e.category == "recorder_copy_missed"]
    assert len(flagged) == 1
    assert flagged[0].detail["copies"] == 1


def test_all_recorders_down_still_stalls_without_counting_as_acked():
    """With every recorder down the frame must stall (the §3.3.4
    suspension), and the misses are still tallied per copy."""
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2), enforce=True)
    a = NetworkInterface(90, [].append, is_recorder=True)
    b = NetworkInterface(91, [].append, is_recorder=True)
    bus.attach(a)
    bus.attach(b)
    a.up = False
    b.up = False
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert inboxes[2] == []
    assert bus.stats.recorder_copies_missed.value == 2
    # no survivor supplied the ack, so no misleading "copy missed but
    # acked anyway" event fires
    assert not [e for e in bus.obs.bus.events
                if e.category == "recorder_copy_missed"]


def test_a_frame_lost_to_the_recorders_is_not_reported_delivered_later():
    """Bugfix regression: "lost to the recorder" was one slot on the
    medium, overwritten when the next frame was recorded. With delivery
    deferred past the end of transmission (``ack_latency_ms``) the
    second frame is recorded before the first is delivered, and the
    recorders were told of the delivery of a frame they never heard —
    it went into the replay log. The fact now travels with the frame's
    own delivery."""
    engine = Engine()
    bus = PerfectBroadcast(engine, ack_latency_ms=5.0)
    sender = bus.attach(NetworkInterface(1, lambda f: None))
    got = []
    bus.attach(NetworkInterface(2, lambda f: got.append(f.payload)))
    heard, told = [], []
    recorder = bus.attach(NetworkInterface(
        99, lambda f: heard.append(f.payload), is_recorder=True))
    recorder.on_delivery = lambda f: told.append(f.payload)
    bus.recorder_loss = lambda frame: frame.payload == 1
    sender.send(data_frame(1, 2, payload=1))
    sender.send(data_frame(1, 2, payload=2))
    engine.run()
    assert got == [1, 2]            # no ack rule enforced: both arrive
    assert heard == [2]
    assert told == [2]              # was [1, 2]


# ----------------------------------------------------------------------
# the station table against the bus scan it replaced
# ----------------------------------------------------------------------
_NODE_IDS = st.integers(0, 6)
_BUS_OPS = st.one_of(
    st.tuples(st.just("attach"), _NODE_IDS,
              st.sampled_from(["station", "station", "recorder", "gateway"]),
              st.frozensets(st.integers(0, 7), max_size=6)),
    st.tuples(st.just("detach"), st.integers(0, 30)),
    st.tuples(st.just("flip"), st.integers(0, 30)),
    st.tuples(st.just("frame"), st.integers(0, 7),
              st.one_of(st.just(BROADCAST), st.integers(0, 7)),
              st.sampled_from([FrameKind.DATA, FrameKind.CONTROL])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_BUS_OPS, max_size=40))
@example([("attach", 1, "gateway", frozenset({2})),     # claimed first,
          ("attach", 2, "station", frozenset()),        # attached second
          ("attach", 3, "gateway", frozenset({2, 3})),
          ("frame", 1, 2, FrameKind.DATA), ("frame", 2, 3, FrameKind.DATA)])
def test_station_table_hands_frames_to_whom_the_scan_did(ops):
    """Attach, detach, re-attach under the same id (spare takeover),
    ``up`` flips, gateways claiming extra destinations — their own id
    and other stations' among them — and unicast, self-addressed and
    broadcast frames: the same stations get the frame, in the same
    order, and the same interface hears its fate."""
    bus = PerfectBroadcast(Engine())
    made, got, acked = [], [], []
    for op in ops:
        if op[0] == "attach":
            _, node, role, claims = op
            iface = NetworkInterface(
                node, None, is_recorder=role == "recorder",
                accept_extra=claims.__contains__ if role == "gateway" else None)
            iface.on_frame = lambda frame, me=iface: got.append(me)
            iface.on_delivered = (
                None if node == 6
                else lambda frame, ok, me=iface: acked.append((me, ok)))
            if any(i.node_id == node for i in bus.interfaces):
                with pytest.raises(NetworkError):
                    bus.attach(iface)
            else:
                assert bus.attach(iface) is iface and iface.medium is bus
                made.append(iface)
        elif op[0] == "detach" and made:
            iface = made[op[1] % len(made)]     # attached or long gone
            was_attached = iface in bus.interfaces
            bus.detach(iface)
            assert iface not in bus.interfaces
            if was_attached:
                assert iface.medium is None and not iface.up
        elif op[0] == "flip" and made:
            iface = made[op[1] % len(made)]
            if iface in bus.interfaces:
                iface.up = not iface.up
        elif op[0] == "frame":
            _, src, dst, kind = op
            frame = Frame(kind, src, dst, "p", 64)
            takers, sender = scan_takers(bus, frame)
            ok = bool(takers) or any(r.node_id == dst and r.up
                                     for r in bus.recorders())
            del got[:], acked[:]
            bus._deliver_to_receivers(frame, True)
            assert got == takers
            assert acked == ([(sender, ok)] if sender is not None else [])
        assert bus.recorders() == [i for i in bus.interfaces if i.is_recorder]


def _bus_of(stations):
    engine = Engine()
    bus = PerfectBroadcast(engine)
    for node in range(1, stations + 1):
        bus.attach(NetworkInterface(node, lambda frame: None))
    return engine, bus


def test_frame_and_attach_cost_do_not_grow_with_the_bus():
    """No clock: calls made by the medium's own code. One unicast frame
    costs the same on 8 stations and on 800 (the scan called ``accepts``
    once per station), and attaching is linear (the duplicate check
    walked the bus)."""
    def one_frame(stations):
        engine, bus = _bus_of(stations)

        def send():
            bus.interfaces[0].send(data_frame(1, 2))
            engine.run()
        return count_calls(send, within=repro.net.media)

    assert one_frame(8) == one_frame(800)
    attach_200 = count_calls(lambda: _bus_of(200), within=repro.net.media)
    attach_800 = count_calls(lambda: _bus_of(800), within=repro.net.media)
    assert attach_800 < 5 * attach_200
