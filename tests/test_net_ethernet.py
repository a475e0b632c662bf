"""Tests for CSMA/CD Ethernet, the Acknowledging Ethernet, the token
ring, and the star hub."""

import pytest

from repro.net.acking_ethernet import AckingEthernet
from repro.net.ethernet import CsmaEthernet
from repro.net.faults import FaultPlan
from repro.net.frames import Frame, FrameKind
from repro.net.media import NetworkInterface
from repro.net.star import StarHub
from repro.net.token_ring import TokenRing
from repro.errors import NetworkError
from repro.sim import Engine, RngStreams


def data_frame(src, dst, payload="p", size=128):
    return Frame(kind=FrameKind.DATA, src_node=src, dst_node=dst,
                 payload=payload, size_bytes=size)


def attach_stations(medium, node_ids):
    inboxes = {}
    for node in node_ids:
        inboxes[node] = []
        medium.attach(NetworkInterface(node, inboxes[node].append))
    return inboxes


class TestCsmaEthernet:
    def test_single_sender_delivers(self):
        engine = Engine()
        ether = CsmaEthernet(engine, RngStreams(1))
        inboxes = attach_stations(ether, (1, 2))
        ether.interfaces[0].send(data_frame(1, 2))
        engine.run()
        assert len(inboxes[2]) == 1

    def test_simultaneous_senders_collide_then_recover(self):
        engine = Engine()
        ether = CsmaEthernet(engine, RngStreams(1))
        inboxes = attach_stations(ether, (1, 2, 3))
        ether.interfaces[0].send(data_frame(1, 3))
        ether.interfaces[1].send(data_frame(2, 3))
        engine.run()
        assert ether.stats.collisions.value >= 2
        assert len(inboxes[3]) == 2      # both eventually delivered

    def test_busy_carrier_defers(self):
        engine = Engine()
        ether = CsmaEthernet(engine, RngStreams(1))
        inboxes = attach_stations(ether, (1, 2, 3))
        arrival_times = []
        ether.interfaces[2].on_frame = lambda f: arrival_times.append(engine.now)
        ether.interfaces[0].send(data_frame(1, 3, size=1000))
        engine.schedule(0.2, lambda: ether.interfaces[1].send(data_frame(2, 3)))
        engine.run()
        assert len(arrival_times) == 2
        assert ether.stats.collisions.value == 0    # deferral, not collision

    def test_auto_ack_frames_contend(self):
        engine = Engine()
        ether = CsmaEthernet(engine, RngStreams(1), auto_ack=True)
        attach_stations(ether, (1, 2))
        ether.interfaces[0].send(data_frame(1, 2))
        engine.run()
        assert ether.acks_sent.value == 1

    def test_heavy_load_acks_collide_more_than_acking_variant(self):
        """The Figure 6.1/6.2 contrast: under load, contending acks
        collide on the standard Ethernet but never on the acking one."""
        def run_medium(cls, **kw):
            engine = Engine()
            rng = RngStreams(5)
            if cls is CsmaEthernet:
                medium = cls(engine, rng, auto_ack=True, **kw)
            else:
                medium = cls(engine, rng, **kw)
            attach_stations(medium, tuple(range(1, 7)))
            for step in range(200):
                src = 1 + step % 6
                dst = 1 + (step + 1) % 6
                engine.schedule(step * 0.4,
                                lambda s=src, d=dst: medium.interfaces[s - 1].send(
                                    data_frame(s, d)))
            engine.run()
            return medium

        standard = run_medium(CsmaEthernet)
        acking = run_medium(AckingEthernet)
        assert standard.ack_collisions.value > 0
        assert acking.ack_collisions.value == 0
        assert acking.stats.collisions.value < standard.stats.collisions.value


class TestAckingEthernet:
    def test_reserved_slot_counted(self):
        engine = Engine()
        ether = AckingEthernet(engine, RngStreams(1))
        attach_stations(ether, (1, 2))
        ether.interfaces[0].send(data_frame(1, 2))
        engine.run()
        assert ether.reserved_slots.value == 1

    def test_sender_learns_delivery(self):
        engine = Engine()
        ether = AckingEthernet(engine, RngStreams(1))
        inboxes = attach_stations(ether, (1, 2))
        acks = []
        ether.interfaces[0].on_delivered = lambda f, ok: acks.append(ok)
        ether.interfaces[0].send(data_frame(1, 2))
        engine.run()
        assert acks == [True]
        assert len(inboxes[2]) == 1

    def test_recorder_miss_drops_frame(self):
        engine = Engine()
        faults = FaultPlan()
        faults.corrupt_next(lambda f, node: node == 99)
        ether = AckingEthernet(engine, RngStreams(1), faults=faults,
                               enforce_recorder_ack=True)
        inboxes = attach_stations(ether, (1, 2))
        recorded = []
        ether.attach(NetworkInterface(99, recorded.append, is_recorder=True))
        ether.interfaces[0].send(data_frame(1, 2))
        engine.run()
        assert inboxes[2] == []


class TestTokenRing:
    def build(self, engine, stations=(1, 2, 3), recorder=True, faults=None):
        ring = TokenRing(engine, faults=faults or FaultPlan(),
                         enforce_recorder_ack=recorder)
        inboxes = attach_stations(ring, stations)
        recorded = []
        if recorder:
            ring.attach(NetworkInterface(99, recorded.append, is_recorder=True))
        return ring, inboxes, recorded

    def test_message_circulates_and_delivers(self):
        engine = Engine()
        ring, inboxes, recorded = self.build(engine)
        ring.interfaces[0].send(data_frame(1, 3))
        engine.run()
        assert len(inboxes[3]) == 1
        assert len(recorded) == 1

    def test_empty_ack_field_means_ignored(self):
        """Without a recorder on the ring... the publishing rule only
        applies when one exists; with a recorder the ack must be filled
        before the destination reads the slot."""
        engine = Engine()
        ring, inboxes, recorded = self.build(engine, recorder=False)
        ring.interfaces[0].send(data_frame(1, 3))
        engine.run()
        assert len(inboxes[3]) == 1   # no publishing: frame flows

    def test_destination_upstream_of_recorder_reads_on_second_pass(self):
        """A destination between the sender and the recorder sees an
        empty ack field on the first pass and must ignore the slot; the
        message circulates again with the field filled and is read."""
        engine = Engine()
        ring = TokenRing(engine, enforce_recorder_ack=True)
        boxes = attach_stations(ring, (1, 2))
        recorded = []
        # Ring order from sender 1: station 2, then the recorder.
        ring.attach(NetworkInterface(99, recorded.append, is_recorder=True))
        delivered = []
        ring.interfaces[0].on_delivered = lambda f, ok: delivered.append(ok)
        ring.interfaces[0].send(data_frame(1, 2))
        engine.run()
        assert len(recorded) == 1
        assert len(boxes[2]) == 1
        assert boxes[2][0].recorder_acked
        assert delivered == [True]

    def test_recorder_invalidates_bad_frame(self):
        engine = Engine()
        faults = FaultPlan()
        faults.corrupt_next(lambda f, node: node == 99)
        ring, inboxes, recorded = self.build(engine, faults=faults)
        delivered = []
        ring.interfaces[0].on_delivered = lambda f, ok: delivered.append(ok)
        ring.interfaces[0].send(data_frame(1, 3))
        engine.run()
        assert inboxes[3] == []
        assert ring.frames_invalidated.value == 1
        assert delivered == [False]

    def test_sender_gets_positive_ack_on_success(self):
        engine = Engine()
        ring, inboxes, _ = self.build(engine)
        delivered = []
        ring.interfaces[0].on_delivered = lambda f, ok: delivered.append(ok)
        ring.interfaces[0].send(data_frame(1, 2))
        engine.run()
        assert delivered == [True]


class TestStarHub:
    def build(self, engine, faults=None):
        star = StarHub(engine, faults=faults or FaultPlan())
        inboxes = attach_stations(star, (1, 2))
        recorded = []
        star.attach(NetworkInterface(99, recorded.append, is_recorder=True))
        return star, inboxes, recorded

    def test_hub_forwards_and_records(self):
        engine = Engine()
        star, inboxes, recorded = self.build(engine)
        star.interfaces[0].send(data_frame(1, 2))
        engine.run()
        assert len(inboxes[2]) == 1
        assert len(recorded) == 1
        assert inboxes[2][0].recorder_acked

    def test_bad_frame_not_passed_on(self):
        """"Any messages received incorrectly by the recorder are not
        passed on" (§4.1)."""
        engine = Engine()
        faults = FaultPlan()
        faults.corrupt_next(lambda f, node: node == 99)
        star, inboxes, recorded = self.build(engine, faults=faults)
        star.interfaces[0].send(data_frame(1, 2))
        engine.run()
        assert inboxes[2] == []
        assert star.stats.recorder_misses.value == 1

    def test_intranode_frame_loops_via_hub(self):
        engine = Engine()
        star, inboxes, recorded = self.build(engine)
        star.interfaces[0].send(data_frame(1, 1))
        engine.run()
        assert len(inboxes[1]) == 1
        assert len(recorded) == 1

    def test_two_hubs_rejected(self):
        engine = Engine()
        star, _, _ = self.build(engine)
        with pytest.raises(NetworkError):
            star.attach(NetworkInterface(98, lambda f: None, is_recorder=True))

    def test_down_hub_blocks_everything(self):
        engine = Engine()
        star, inboxes, recorded = self.build(engine)
        star.hub.up = False
        star.interfaces[0].send(data_frame(1, 2))
        engine.run()
        assert inboxes[2] == []
