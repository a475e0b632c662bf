"""Tests for the broadcast bus and the recorder-acknowledgement rule."""

import ast
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.net.media
from repro.errors import NetworkError
from repro.net import MEDIA, build_medium
from repro.net.faults import FaultPlan
from repro.net.frames import BROADCAST, Frame, FrameKind
from repro.net.media import NetworkInterface, PerfectBroadcast
from repro.net.star import StarHub
from repro.net.token_ring import TokenRing
from repro.net.transport import Transport, TransportConfig
from repro.sim import Engine, RngStreams

from fixtures import count_calls, scan_takers


def data_frame(src, dst, payload="p", size=128):
    return Frame(kind=FrameKind.DATA, src_node=src, dst_node=dst,
                 payload=payload, size_bytes=size)


#: the rule's tests run on ``broadcast`` under their own ids and on
#: these under a ``*_on`` sibling each
OTHER_MEDIA = [name for name in MEDIA if name != "broadcast"]
#: a star's hub is its one recorder: no star without, none with two
BUS_AND_RING = [name for name in OTHER_MEDIA if name != "star"]


def build_bus(engine, node_ids=(1, 2), with_recorder=False, faults=None,
              medium="broadcast"):
    bus = build_medium(medium, engine, RngStreams(1),
                       faults=faults or FaultPlan())
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


def _recorder_miss_blocks_data_frame(medium):
    engine = Engine()
    faults = FaultPlan()
    faults.corrupt_next(lambda f, node: node == 99)
    bus, inboxes, recorded = build_bus(engine, (1, 2), with_recorder=True,
                                       faults=faults, medium=medium)
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert inboxes[2] == []
    assert bus.stats.recorder_misses.value == 1


def test_recorder_miss_blocks_data_frame_when_enforced():
    """A frame the recorder misses must not be usable (§6.1)."""
    _recorder_miss_blocks_data_frame("broadcast")


@pytest.mark.parametrize("medium", OTHER_MEDIA)
def test_recorder_miss_blocks_data_frame_when_enforced_on(medium):
    _recorder_miss_blocks_data_frame(medium)


def test_a_frame_the_recorder_missed_reaches_the_receiver_once_resent():
    """The rule end to end on CSMA/CD, where the transport acknowledges
    with frames of its own and holds no copy of the rule: the recorder's
    copy of the first transmission is corrupted, so the medium hands the
    receiver nothing of it and no ack comes back; the sender's timer
    re-sends the message, the recorder stores it, and it is delivered
    exactly once (§6.1.1)."""
    engine = Engine()
    faults = FaultPlan()
    faults.corrupt_next(lambda f, node: node == 99)
    bus = build_medium("csma_ethernet", engine, RngStreams(2), faults=faults)
    config = TransportConfig(retransmit_timeout_ms=20.0)
    sender = Transport(engine, bus, 1, lambda s: None, config)
    got = []
    receiver = Transport(engine, bus, 2, lambda s: got.append(s.body), config)
    bus.attach(NetworkInterface(99, lambda f: None, is_recorder=True))
    sent, seen = [], []
    sender_send = sender.iface.send
    sender.iface.send = lambda f: (sent.append(f), sender_send(f))
    receiver_on_frame = receiver.iface.on_frame
    receiver.iface.on_frame = lambda f: (seen.append(f), receiver_on_frame(f))
    sender.send(2, "needs-recorder", 128, uid=("p", 1))
    engine.run(until=2000)
    data = [f.frame_id for f in sent if f.kind is FrameKind.DATA]
    assert len(data) == 2 and sender.stats.retransmissions.value == 1
    assert data[0] not in [f.frame_id for f in seen]
    assert bus.stats.recorder_misses.value == 1
    assert got == ["needs-recorder"]
    assert receiver.stats.delivered_up.value == 1


def _downed_recorder_stalls_all_data(medium):
    engine = Engine()
    bus, inboxes, recorded = build_bus(engine, (1, 2), with_recorder=True,
                                       medium=medium)
    recorder_iface = bus._recorder_ifaces[0]
    recorder_iface.up = False
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert inboxes[2] == []


def test_downed_recorder_stalls_all_data():
    _downed_recorder_stalls_all_data("broadcast")


@pytest.mark.parametrize("medium", OTHER_MEDIA)
def test_downed_recorder_stalls_all_data_on(medium):
    _downed_recorder_stalls_all_data(medium)


def _no_recorder_attached_means_no_gating(medium):
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2), medium=medium)
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert len(inboxes[2]) == 1


def test_no_recorder_attached_means_no_gating():
    _no_recorder_attached_means_no_gating("broadcast")


@pytest.mark.parametrize("medium", BUS_AND_RING)
def test_no_recorder_attached_means_no_gating_on(medium):
    _no_recorder_attached_means_no_gating(medium)


def _a_delivered_frame_is_one_the_recorders_stored(medium):
    """What a delivery says about the recorders: the frame a station is
    handed is already in the recorder's log when the station takes it —
    on a ring too, where a destination upstream of the recorder reads
    it on the second pass."""
    engine = Engine()
    bus, inboxes, recorded = build_bus(engine, (1, 2), with_recorder=True,
                                       medium=medium)
    stored_when_taken = []
    bus.interfaces[1].on_frame = lambda f: stored_when_taken.append(
        (f.frame_id, [r.frame_id for r in recorded]))
    frame = data_frame(1, 2)
    bus.interfaces[0].send(frame)
    engine.run()
    assert stored_when_taken == [(frame.frame_id, [frame.frame_id])]


def test_a_delivered_frame_is_one_the_recorders_stored():
    _a_delivered_frame_is_one_the_recorders_stored("broadcast")


@pytest.mark.parametrize("medium", OTHER_MEDIA)
def test_a_delivered_frame_is_one_the_recorders_stored_on(medium):
    _a_delivered_frame_is_one_the_recorders_stored(medium)


def _sender_hears(medium, receiver_up):
    """What the sender's ``on_delivered`` was told about one frame, and
    what a medium with a hardware acknowledgement to give must say."""
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2), medium=medium,
                                with_recorder=medium == "star")
    acks = []
    bus.interfaces[0].on_delivered = lambda f, ok: acks.append(ok)
    bus.interfaces[1].up = receiver_up
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    return acks, [receiver_up] if bus.provides_delivery_ack else []


def test_sender_gets_delivery_ack():
    assert _sender_hears("broadcast", receiver_up=True)[0] == [True]


@pytest.mark.parametrize("medium", OTHER_MEDIA)
def test_sender_gets_delivery_ack_on(medium):
    acks, expected = _sender_hears(medium, receiver_up=True)
    assert acks == expected


def test_sender_gets_negative_ack_for_down_receiver():
    assert _sender_hears("broadcast", receiver_up=False)[0] == [False]


@pytest.mark.parametrize("medium", OTHER_MEDIA)
def test_sender_gets_negative_ack_for_down_receiver_on(medium):
    acks, expected = _sender_hears(medium, receiver_up=False)
    assert acks == expected


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


def _multi_recorder_requires_all_healthy_recorders(medium):
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2), medium=medium)
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
    return rec_a, rec_b


def test_multi_recorder_requires_all_healthy_recorders():
    """§6.3: every healthy recorder must store the frame."""
    _multi_recorder_requires_all_healthy_recorders("broadcast")


@pytest.mark.parametrize("medium", BUS_AND_RING)
def test_multi_recorder_requires_all_healthy_recorders_on(medium):
    """The ring used to hand the slot to its first recorder only."""
    rec_a, rec_b = _multi_recorder_requires_all_healthy_recorders(medium)
    assert len(rec_a) == 2 and len(rec_b) == 1


def _down_recorder_ack_supplied_by_survivor(medium):
    engine = Engine()
    bus, inboxes, _ = build_bus(engine, (1, 2), medium=medium)
    rec_a, rec_b = [], []
    a = NetworkInterface(90, rec_a.append, is_recorder=True)
    b = NetworkInterface(91, rec_b.append, is_recorder=True)
    bus.attach(a)
    bus.attach(b)
    b.up = False
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert len(inboxes[2]) == 1      # survivor's ack suffices


def test_down_recorder_ack_supplied_by_survivor():
    _down_recorder_ack_supplied_by_survivor("broadcast")


@pytest.mark.parametrize("medium", BUS_AND_RING)
def test_down_recorder_ack_supplied_by_survivor_on(medium):
    _down_recorder_ack_supplied_by_survivor(medium)


@pytest.mark.parametrize("medium", list(MEDIA))
def test_a_corrupted_copy_is_not_a_delivery(medium):
    """"Delivered" means a copy passed its checksum: the destination's
    copy is corrupted, so the sender is told no, the medium counts no
    delivery and the recorder is not told of a reception (§4.4.1). The
    ring and the star used to say yes."""
    engine = Engine()
    faults = FaultPlan()
    faults.corrupt_next(lambda f, node: node == 2)
    bus, inboxes, _ = build_bus(engine, (1, 2), with_recorder=True,
                                faults=faults, medium=medium)
    acks, told = [], []
    bus.interfaces[0].on_delivered = lambda f, ok: acks.append(ok)
    bus._recorder_ifaces[0].on_delivery = told.append
    bus.interfaces[0].send(data_frame(1, 2))
    engine.run()
    assert [f.checksum_ok() for f in inboxes[2]] == [False]
    assert acks == ([False] if bus.provides_delivery_ack else [])
    assert bus.stats.frames_delivered.value == 0
    assert told == []


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
    bus, inboxes, _ = build_bus(engine, (1, 2))
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
    bus, inboxes, _ = build_bus(engine, (1, 2))
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
    bus.gossip_backup = True        # the one way past a total miss
    sender.send(data_frame(1, 2, payload=1))
    sender.send(data_frame(1, 2, payload=2))
    engine.run()
    assert got == [1, 2]            # the miss is tolerated: both arrive
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
                                     for r in bus._recorder_ifaces)
            del got[:], acked[:]
            bus._deliver_to_receivers(frame, True)
            assert got == takers
            assert acked == ([(sender, ok)] if sender is not None else [])
        assert bus._recorder_ifaces == [i for i in bus.interfaces if i.is_recorder]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([TokenRing, StarHub]), st.lists(_BUS_OPS, max_size=40))
@example(TokenRing,
         [("attach", 1, "station", frozenset()),         # sender
          ("attach", 2, "gateway", frozenset({5})),      # upstream claimer
          ("attach", 0, "recorder", frozenset()),
          ("attach", 3, "gateway", frozenset({5})),      # downstream claimer
          ("frame", 1, 5, FrameKind.DATA), ("frame", 1, BROADCAST, FrameKind.DATA)])
def test_ring_and_star_hand_frames_to_whom_the_scan_does(medium, ops):
    """The same oracle for the two media with their own timing, driven
    through ``send``: every taker the scan names — claimers included,
    upstream of the ring's recorder or down it — is handed the frame
    exactly once and the sender hears whether anyone got it."""
    engine = Engine()
    bus = medium(engine)
    if medium is StarHub:                   # its one hub, fixed and up
        bus.attach(NetworkInterface(99, lambda frame: None, is_recorder=True))
    made, got, acked = [], [], []
    for op in ops:
        if op[0] == "attach":
            _, node, role, claims = op
            iface = NetworkInterface(
                node, None, is_recorder=role == "recorder",
                accept_extra=claims.__contains__ if role == "gateway" else None)
            iface.on_frame = (
                (lambda frame: None) if iface.is_recorder
                else lambda frame, me=iface: got.append(me))
            iface.on_delivered = (
                None if node == 6
                else lambda frame, ok, me=iface: acked.append((me, ok)))
            if (node in [i.node_id for i in bus.interfaces]
                    or (medium is StarHub and iface.is_recorder)):
                with pytest.raises(NetworkError):
                    bus.attach(iface)
                assert iface.medium is None and iface not in bus.interfaces
            else:
                made.append(bus.attach(iface))
        elif op[0] == "detach" and made:
            bus.detach(made[op[1] % len(made)])
        elif op[0] == "flip" and made:
            iface = made[op[1] % len(made)]
            if iface in bus.interfaces:
                iface.up = not iface.up
        elif op[0] == "frame":
            _, src, dst, kind = op
            origin = next((i for i in bus.interfaces
                           if i.node_id == src and i.up), None)
            if origin is None:
                continue
            frame = Frame(kind, src, dst, "p", 64)
            takers, sender = scan_takers(bus, frame)
            recorders = bus._recorder_ifaces
            live = [r for r in recorders if r.up]
            if recorders and not live:
                takers = []                 # nobody filled the field
            ok = bool(takers) or any(r.node_id == dst for r in live)
            del got[:], acked[:]
            origin.send(frame)
            engine.run()
            assert sorted(got, key=bus.interfaces.index) == takers
            assert acked == ([(sender, ok)] if sender is not None else [])


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


# ----------------------------------------------------------------------
# one rule: the decision lives in Medium, a medium model supplies timing
# ----------------------------------------------------------------------
def _rule_sites():
    """Where ``src/repro/net/`` applies the fault plan to a frame, calls
    a station, counts a delivery or a miss, reports a reception or tells
    a sender — as a multiset of ``(what, module, function)``."""
    sites = Counter()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        what = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, owner = node.func.attr, node.func.value
            owner_attr = getattr(owner, "attr", None)
            if attr == "apply" and owner_attr == "faults":
                what = "faults.apply"
            elif attr in ("on_frame", "on_delivered", "on_delivery",
                          "_notify_recorders_of_delivery", "_notify_sender",
                          "_deliver_to_receivers", "gossip_tap",
                          "recorder_loss"):
                what = attr
            elif attr == "inc" and owner_attr in (
                    "frames_delivered", "bytes_delivered", "recorder_misses"):
                what = f"{owner_attr}.inc"
        if what is not None:
            sites[what, module, function] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(Path(repro.net.media.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    return sites


def test_the_publishing_rule_is_written_once():
    """A sixth medium cannot grow its own copy: every step of the rule
    is in ``media.py``, in one function each, and the other modules of
    ``net/`` hold none of them (``token_ring.py`` and ``star.py`` used
    to carry all of them)."""
    assert _rule_sites() == Counter({
        ("faults.apply", "media.py", "_record_frame"): 1,
        ("on_frame", "media.py", "_record_frame"): 1,
        ("recorder_loss", "media.py", "_record_frame"): 1,
        ("recorder_misses.inc", "media.py", "_withhold"): 2,  # tolerated, withheld
        ("gossip_tap", "media.py", "_withhold"): 1,
        ("faults.apply", "media.py", "_hand"): 1,
        ("on_frame", "media.py", "_hand"): 1,
        ("_notify_recorders_of_delivery", "media.py", "_hand"): 1,
        ("on_delivery", "media.py", "_notify_recorders_of_delivery"): 1,
        ("frames_delivered.inc", "media.py", "_settle"): 1,
        ("bytes_delivered.inc", "media.py", "_settle"): 1,
        ("_notify_sender", "media.py", "_settle"): 1,
        ("on_delivered", "media.py", "_notify_sender"): 1,
        # record, then deliver now or after a delay: spelled once
        ("_deliver_to_receivers", "media.py", "_publish"): 1,
    })
