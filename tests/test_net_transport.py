"""Tests for the transport layer: guarantees, dedup, ordering, windows."""

import pytest

from fixtures import (
    count_calls,
    expected_totals,
    register_test_programs,
    run_counter_scenario,
)
from repro import System, SystemConfig
from repro.net import transport
from repro.net.faults import FaultPlan
from repro.net.media import PerfectBroadcast
from repro.net.ethernet import CsmaEthernet
from repro.net.transport import Transport, TransportConfig
from repro.errors import NetworkError
from repro.sim import Engine, RngStreams


def build_pair(engine, config=None, medium=None, faults=None):
    medium = medium or PerfectBroadcast(engine, faults=faults or FaultPlan())
    got = {1: [], 2: []}
    t1 = Transport(engine, medium, 1, lambda s: got[1].append(s.body),
                   config or TransportConfig())
    t2 = Transport(engine, medium, 2, lambda s: got[2].append(s.body),
                   config or TransportConfig())
    return medium, t1, t2, got


def test_guaranteed_delivery_clean_network():
    engine = Engine()
    _, t1, t2, got = build_pair(engine)
    for i in range(5):
        t1.send(2, f"msg{i}", 128, uid=("p", i))
    engine.run()
    assert got[2] == [f"msg{i}" for i in range(5)]
    assert t1.queue_depth == 0


def test_lost_frame_retransmitted():
    engine = Engine()
    faults = FaultPlan()
    faults.lose_next(lambda f, node: node == 2, count=3)
    _, t1, t2, got = build_pair(engine, faults=faults)
    t1.send(2, "persistent", 128, uid=("p", 1))
    engine.run()
    assert got[2] == ["persistent"]
    assert t1.stats.retransmissions.value >= 1


def test_corrupted_frame_dropped_then_retransmitted():
    engine = Engine()
    faults = FaultPlan()
    faults.corrupt_next(lambda f, node: node == 2, count=2)
    _, t1, t2, got = build_pair(engine, faults=faults)
    t1.send(2, "x", 128, uid=("p", 1))
    engine.run()
    assert got[2] == ["x"]
    assert t2.stats.dropped_bad_checksum.value == 2


def test_duplicates_suppressed_on_explicit_ack_medium():
    """On media without hardware acks, lost ACK frames cause duplicate
    data frames, which the dedup cache must absorb."""
    engine = Engine()
    rng = RngStreams(3)
    medium = CsmaEthernet(engine, rng)
    faults = medium.faults
    got = {1: [], 2: []}
    t1 = Transport(engine, medium, 1, lambda s: got[1].append(s.body))
    t2 = Transport(engine, medium, 2, lambda s: got[2].append(s.body))
    # Lose the first ACK frame headed back to node 1.
    faults.lose_next(lambda f, node: node == 1 and f.kind.value == "ack")
    t1.send(2, "once", 128, uid=("p", 1))
    engine.run(until=5000)
    assert got[2] == ["once"]
    assert t2.stats.duplicates_suppressed.value >= 1


def test_dedup_horizon_bounds_what_a_receiver_suppresses():
    """Duplicate suppression remembers the last ``DEDUP_HORIZON`` uids:
    a re-sent uid inside that horizon is suppressed, one that has left
    it is delivered again."""
    engine = Engine()
    _, t1, t2, got = build_pair(engine)
    horizon = transport.DEDUP_HORIZON
    for i in range(horizon + 1):
        t1.send(2, i, 16, uid=("p", i))
    engine.run()
    assert got[2] == list(range(horizon + 1))
    t1.send(2, "inside", 16, uid=("p", 1))
    t1.send(2, "outside", 16, uid=("p", 0))
    engine.run()
    assert got[2][horizon + 1:] == ["outside"]
    assert t2.stats.duplicates_suppressed.value == 1


def test_in_order_delivery_with_window_one():
    engine = Engine()
    faults = FaultPlan()
    # Drop the first copy of the first message: it must still arrive
    # before the second message.
    faults.lose_next(lambda f, node: node == 2, count=1)
    _, t1, t2, got = build_pair(engine, faults=faults)
    t1.send(2, "first", 128, uid=("p", 1))
    t1.send(2, "second", 128, uid=("p", 2))
    engine.run()
    assert got[2] == ["first", "second"]


def test_unguaranteed_messages_fire_and_forget():
    engine = Engine()
    faults = FaultPlan()
    faults.lose_next(lambda f, node: node == 2)
    _, t1, t2, got = build_pair(engine, faults=faults)
    t1.send(2, "gone", 64, uid=("u", 1), guaranteed=False)
    engine.run()
    assert got[2] == []
    assert t1.queue_depth == 0          # nothing waits for an ack


def test_guaranteed_broadcast_rejected():
    engine = Engine()
    _, t1, _, _ = build_pair(engine)
    with pytest.raises(NetworkError):
        t1.send(-1, "x", 64, uid=("b", 1))


def test_intranode_send_loops_back_and_completes():
    engine = Engine()
    _, t1, _, got = build_pair(engine)
    t1.send(1, "self", 128, uid=("p", 1))
    engine.run()
    assert got[1] == ["self"]
    assert t1.queue_depth == 0


def test_crash_clears_transport_state():
    engine = Engine()
    _, t1, t2, got = build_pair(engine)
    t1.send(2, "a", 128, uid=("p", 1))
    t1.send(2, "b", 128, uid=("p", 2))
    t1.crash()
    engine.run()
    assert t1.queue_depth == 0
    t1.restart()
    t1.send(2, "c", 128, uid=("p", 3))
    engine.run()
    assert "c" in got[2]


def test_receiver_down_then_up_gets_message():
    engine = Engine()
    _, t1, t2, got = build_pair(engine)
    t2.iface.up = False
    t1.send(2, "late", 128, uid=("p", 1))
    engine.schedule(500.0, t2.restart)
    engine.run(until=5000)
    assert got[2] == ["late"]


def test_sender_interface_down_during_retry_does_not_wedge():
    """Regression: if the sender's own interface goes down between a
    timeout firing and the retransmission, the message used to be left
    in `_in_flight` with no timer — wedged forever. The retry timer must
    stay alive across the outage."""
    engine = Engine()
    _, t1, t2, got = build_pair(engine)
    t2.iface.up = False                    # force the retry path
    t1.send(2, "survivor", 128, uid=("p", 1))
    engine.run(until=50.0)                 # first copy lost; timer pending
    t1.iface.up = False                    # NIC outage hits mid-retry
    engine.run(until=450.0)                # retry timers fire while down
    assert t1.queue_depth == 1             # still tracked, not abandoned
    t1.iface.up = True
    t2.restart()
    engine.run(until=20_000.0)
    assert got[2] == ["survivor"]
    assert t1.queue_depth == 0


def test_permanently_dead_interface_reaches_dead_letter_hook(monkeypatch):
    """A sender whose interface never comes back must not retry forever:
    the skipped transmissions consume the retry budget and the message
    ends in the `on_gave_up` dead-letter hook."""
    engine = Engine()
    monkeypatch.setattr(transport, "MAX_RETRIES", 4)
    cfg = TransportConfig(retransmit_timeout_ms=10.0)
    _, t1, t2, got = build_pair(engine, config=cfg)
    dead = []
    t1.on_gave_up = lambda segment, attempts: dead.append(
        (segment.body, attempts))
    t1.iface.up = False
    t1.send(2, "doomed", 128, uid=("p", 1))
    engine.run()
    assert dead == [("doomed", 4)]
    assert t1.stats.gave_up.value == 1
    assert t1.queue_depth == 0
    assert got[2] == []


def test_retry_delays_back_off_exponentially_and_cap():
    engine = Engine()
    cfg = TransportConfig(retransmit_timeout_ms=10.0)
    _, t1, _, _ = build_pair(engine, config=cfg)
    assert [t1._retry_delay_ms(k) for k in range(1, 11)] == \
        [10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0, 2000.0, 2000.0]


def test_per_destination_pump_is_linear_in_queue_depth():
    """Draining n queued messages costs the transport O(n) host work,
    whether they all wait behind one in-flight message to a single
    destination (a §4.7 replay stream: every completion used to re-file
    the whole queue, 13.8x the calls for 4x the depth) or go to n
    destinations. Call events stand in for time: tier-1 reads no clock."""
    def drain_calls(depth, destinations):
        engine = Engine()
        medium = PerfectBroadcast(engine)
        # n frames offered at once outlast the default retry timer on
        # the serialized bus; retransmissions are not what is measured
        t = Transport(engine, medium, 1, lambda s: None,
                      TransportConfig(per_destination=True, window=1,
                                      retransmit_timeout_ms=1e6))
        delivered = []
        for node_id in range(2, 2 + destinations):
            Transport(engine, medium, node_id,
                      lambda s: delivered.append(s.body))

        def drain():
            for i in range(depth):
                t.send(2 + i % destinations, i, 128, uid=("p", i))
            engine.run()

        calls = count_calls(drain, within=transport)
        assert sorted(delivered) == list(range(depth))
        assert t.queue_depth == 0
        return calls

    for destinations in (1, None):
        small = drain_calls(200, destinations or 200)
        large = drain_calls(800, destinations or 800)
        assert large < 6 * small, \
            f"drain scaled superlinearly: {small} -> {large} calls"


def test_per_destination_window_avoids_head_of_line_blocking():
    engine = Engine()
    medium = PerfectBroadcast(engine)
    got = {2: [], 3: []}
    config = TransportConfig(per_destination=True, window=1,
                             retransmit_timeout_ms=200.0)
    t1 = Transport(engine, medium, 1, lambda s: None, config)
    t2 = Transport(engine, medium, 2, lambda s: got[2].append(s.body))
    t3 = Transport(engine, medium, 3, lambda s: got[3].append(s.body))
    t2.iface.up = False                  # node 2 unreachable for a while
    t1.send(2, "stuck", 128, uid=("p", 1))
    t1.send(3, "flows", 128, uid=("p", 2))
    engine.run(until=100.0)
    assert got[3] == ["flows"]           # not blocked behind node 2
    t2.restart()
    engine.run(until=5000)
    assert got[2] == ["stuck"]


def test_per_destination_window_preserves_order_per_destination():
    engine = Engine()
    faults = FaultPlan()
    faults.lose_next(lambda f, node: node == 2, count=1)
    medium = PerfectBroadcast(engine, faults=faults)
    got = []
    config = TransportConfig(per_destination=True, window=1)
    t1 = Transport(engine, medium, 1, lambda s: None, config)
    t2 = Transport(engine, medium, 2, lambda s: got.append(s.body))
    t1.send(2, "a", 128, uid=("p", 1))
    t1.send(2, "b", 128, uid=("p", 2))
    t1.send(2, "c", 128, uid=("p", 3))
    engine.run()
    assert got == ["a", "b", "c"]


def test_tap_sees_all_valid_frames():
    engine = Engine()
    medium = PerfectBroadcast(engine)
    tapped = []
    t_rec = Transport(engine, medium, 99, lambda s: None,
                      is_recorder=True, tap=tapped.append)
    t1 = Transport(engine, medium, 1, lambda s: None)
    t2 = Transport(engine, medium, 2, lambda s: None)
    t1.send(2, "observable", 128, uid=("p", 1))
    engine.run()
    assert any(f.payload.body == "observable" for f in tapped)


class TestOrderedWindow:
    """The §4.3.3 windowing scheme: several messages in flight, order
    still preserved by receiver-side reordering."""

    def build(self, engine, window=4, faults=None):
        medium = PerfectBroadcast(engine, faults=faults or FaultPlan())
        got = []
        cfg = TransportConfig(window=window, retransmit_timeout_ms=20.0)
        t1 = Transport(engine, medium, 1, lambda s: None, cfg)
        t2 = Transport(engine, medium, 2, lambda s: got.append(s.body), cfg)
        return t1, t2, got

    def test_pipeline_keeps_order_on_clean_network(self):
        engine = Engine()
        t1, t2, got = self.build(engine)
        for i in range(20):
            t1.send(2, i, 128, uid=("p", i))
        engine.run()
        assert got == list(range(20))

    def test_order_preserved_when_head_is_lost(self):
        """Messages behind a lost head arrive first on the wire but must
        be held until the retransmitted head fills the gap."""
        engine = Engine()
        faults = FaultPlan()
        faults.lose_next(lambda f, node: node == 2, count=1)  # lose msg 0
        t1, t2, got = self.build(engine, faults=faults)
        for i in range(8):
            t1.send(2, i, 128, uid=("p", i))
        engine.run()
        assert got == list(range(8))

    def test_windowed_faster_than_stop_and_wait(self):
        """The point of the scheme: amortize the round trip."""
        def elapsed(window):
            engine = Engine()
            medium = PerfectBroadcast(engine)
            done = []
            cfg = TransportConfig(window=window)
            t1 = Transport(engine, medium, 1, lambda s: None, cfg)
            t2 = Transport(engine, medium, 2, lambda s: done.append(s.body),
                           cfg)
            for i in range(30):
                t1.send(2, i, 1000, uid=("p", i))
            engine.run()
            assert done == list(range(30))
            return engine.now

        stop_and_wait = elapsed(window=1)
        windowed = elapsed(window=8)
        assert windowed <= stop_and_wait

    def test_streams_independent_per_source(self):
        engine = Engine()
        medium = PerfectBroadcast(engine)
        got = []
        cfg = TransportConfig(window=4)
        t1 = Transport(engine, medium, 1, lambda s: None, cfg)
        t3 = Transport(engine, medium, 3, lambda s: None, cfg)
        t2 = Transport(engine, medium, 2,
                       lambda s: got.append((s.src_node, s.body)), cfg)
        for i in range(5):
            t1.send(2, i, 128, uid=("a", i))
            t3.send(2, i, 128, uid=("b", i))
        engine.run()
        from_1 = [b for s, b in got if s == 1]
        from_3 = [b for s, b in got if s == 3]
        assert from_1 == list(range(5))
        assert from_3 == list(range(5))

    def test_suppressed_duplicate_consumes_its_stream_sequence(self):
        """A recovering process regenerates a send under its old uid
        but a fresh stream sequence number. The receiver suppresses and
        acks it, so nothing will ever fill that number again: it must
        count as consumed, or every later segment from that node is
        acked, parked and never delivered."""
        engine = Engine()
        t1, t2, got = self.build(engine)
        t1.send(2, "a", 128, uid=("U",))
        engine.run()
        t1.send(2, "a", 128, uid=("U",))     # same uid, stream_seq 1
        t1.send(2, "b", 128, uid=("V",))     # stream_seq 2
        engine.run()
        assert got == ["a", "b"]
        assert t2.stats.duplicates_suppressed.value == 1
        assert t1.queue_depth == 0

    def test_retransmitted_duplicate_leaves_the_stream_alone(self):
        """A plain retransmission carries its original sequence number:
        suppressing it must neither skip nor displace what is held."""
        engine = Engine()
        faults = FaultPlan()
        # the head is lost three times, so 1..5 are held behind it; the
        # first ack back (of a held segment) is lost too, so that
        # segment arrives a second time while still held
        faults.lose_next(lambda f, node: node == 2 and f.kind.value == "data"
                         and f.payload.stream_seq == 0, count=3)
        faults.lose_next(lambda f, node: node == 1 and f.kind.value == "ack")
        medium = CsmaEthernet(engine, RngStreams(5), faults=faults)
        got = []
        cfg = TransportConfig(window=8, retransmit_timeout_ms=20.0)
        t1 = Transport(engine, medium, 1, lambda s: None, cfg)
        t2 = Transport(engine, medium, 2, lambda s: got.append(s.body), cfg)
        for i in range(6):
            t1.send(2, i, 128, uid=("p", i))
        engine.run(until=100.0)
        assert got == [] and t2.stats.duplicates_suppressed.value >= 1
        engine.run(until=5000)
        assert got == list(range(6))


class TestWindowedFullStack:
    """The windowing scheme under the complete publishing system: more
    throughput, same exactness — including across a crash."""

    def test_recovery_exact_with_windowed_transport(self):
        import sys, os
        sys.path.insert(0, os.path.dirname(__file__))
        from conftest import (expected_totals, register_test_programs,
                              run_counter_scenario)
        from repro import System, SystemConfig

        system = System(SystemConfig(nodes=2, transport_window=4))
        register_test_programs(system)
        system.boot()
        counter_pid, driver_pid = run_counter_scenario(system, n=40)
        system.run(1200)
        system.crash_process(counter_pid)
        deadline = system.engine.now + 240_000
        while system.engine.now < deadline:
            driver = system.program_of(driver_pid)
            if driver is not None and len(driver.replies) >= 40:
                break
            system.run(1000)
        assert system.program_of(driver_pid).replies == expected_totals(40)
        assert system.program_of(counter_pid).seen == list(range(1, 41))

    def test_client_crash_mid_stream_does_not_wedge_its_streams(self):
        """The sender side of the same scheme: a crashed *client* is
        recovered, replays, and regenerates its last unconfirmed send —
        a duplicate to the server's transport. The stream behind it
        must keep flowing (it used to stop at 23 of 40, silently)."""
        system = System(SystemConfig(nodes=2, transport_window=4))
        register_test_programs(system)
        system.boot()
        counter_pid, driver_pid = run_counter_scenario(system, n=40)
        system.run(1500)
        system.crash_process(driver_pid)
        deadline = system.engine.now + 120_000
        while system.engine.now < deadline:
            driver = system.program_of(driver_pid)
            if driver is not None and len(driver.replies) >= 40:
                break
            system.run(1000)
        # the crash landed where the regenerated send is a duplicate
        assert sum(node.transport.stats.duplicates_suppressed.value
                   for node in system.nodes.values()) >= 1
        assert system.program_of(driver_pid).replies == expected_totals(40)
        assert system.dead_letters == []

    def test_windowed_recovery_with_loss(self):
        import sys, os
        sys.path.insert(0, os.path.dirname(__file__))
        from conftest import (expected_totals, register_test_programs,
                              run_counter_scenario)
        from repro import System, SystemConfig

        system = System(SystemConfig(nodes=2, transport_window=4,
                                     loss_rate=0.05))
        register_test_programs(system)
        system.boot()
        counter_pid, driver_pid = run_counter_scenario(system, n=30)
        system.run(1500)
        system.crash_process(counter_pid)
        deadline = system.engine.now + 300_000
        while system.engine.now < deadline:
            driver = system.program_of(driver_pid)
            if driver is not None and len(driver.replies) >= 30:
                break
            system.run(1000)
        assert system.program_of(driver_pid).replies == expected_totals(30)
        assert system.program_of(counter_pid).seen == list(range(1, 31))
