"""Unit tests for frames, checksums, and fault injection."""

import random

import pytest

from repro.net.frames import (
    BROADCAST,
    Frame,
    FrameKind,
    canonical_bytes,
    crc16,
    crc16_bitwise,
)
from repro.net.faults import FaultPlan
from repro.sim.rng import RngStreams


def make_frame(payload="hello", dst=2):
    return Frame(kind=FrameKind.DATA, src_node=1, dst_node=dst,
                 payload=payload, size_bytes=128)


class TestCrc:
    def test_known_stability(self):
        assert crc16(b"123456789") == crc16(b"123456789")

    def test_different_data_different_crc(self):
        assert crc16(b"abc") != crc16(b"abd")

    def test_empty_input(self):
        assert crc16(b"") == 0xFFFF

    def test_table_matches_bitwise_reference(self):
        """The 256-entry table implementation must agree byte-for-byte
        with the original bit-loop on random payloads — published-frame
        checksums are unchanged by the optimization."""
        rng = random.Random(1983)
        payloads = [b"", b"\x00", b"\xff" * 64, b"123456789"]
        payloads += [bytes(rng.randrange(256)
                           for _ in range(rng.randrange(1, 512)))
                     for _ in range(200)]
        for payload in payloads:
            assert crc16(payload) == crc16_bitwise(payload), payload

    def test_crc16_ccitt_check_value(self):
        # CRC-16/CCITT-FALSE check value for "123456789"
        assert crc16(b"123456789") == 0x29B1


class TestFrame:
    def test_checksum_computed_and_valid(self):
        frame = make_frame()
        assert frame.checksum == crc16(canonical_bytes("hello"))
        assert frame.checksum_ok()

    def test_corrupt_invalidates(self):
        frame = make_frame()
        frame.corrupt()
        assert not frame.checksum_ok()

    def test_double_corrupt_restores(self):
        frame = make_frame()
        frame.corrupt()
        frame.corrupt()
        assert frame.checksum_ok()

    def test_frame_ids_unique(self):
        assert make_frame().frame_id != make_frame().frame_id

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Frame(kind=FrameKind.DATA, src_node=1, dst_node=2,
                  payload="x", size_bytes=0)

    def test_clone_for_retargets_but_keeps_payload(self):
        frame = make_frame()
        clone = frame.clone_for(7)
        assert clone.dst_node == 7
        assert clone.payload == frame.payload
        assert clone.checksum == frame.checksum
        assert clone.checksum_ok()

    def test_slots_no_instance_dict(self):
        with pytest.raises(AttributeError):
            make_frame().not_a_field = 1


class TestChecksumCache:
    """The per-frame CRC cache must never mask injected bit rot."""

    def test_corrupt_after_validation_still_detected(self):
        frame = make_frame()
        assert frame.checksum_ok()          # warm the cache
        frame.corrupt()
        assert not frame.checksum_ok()      # cache invalidated
        frame.corrupt()
        assert frame.checksum_ok()          # double-flip restores

    def test_fault_injected_copy_fails_check_with_warm_caches(self):
        plan = FaultPlan()
        plan.corrupt_next(lambda f, node: True)
        frame = make_frame()
        assert frame.checksum_ok()          # original cache warm
        seen = plan.apply(frame, 2)
        assert seen is not frame
        assert not seen.checksum_ok()       # corruption flips the check
        assert not seen.checksum_ok()       # ... and stays flipped
        assert frame.checksum_ok()          # original untouched

    def test_clone_shares_cache_and_still_validates(self):
        frame = make_frame()
        assert frame.checksum_ok()
        clone = frame.clone_for(9)
        assert clone.checksum_ok()
        clone.corrupt()
        assert not clone.checksum_ok()
        assert frame.checksum_ok()

    def test_repeated_checks_computed_once(self):
        frame = make_frame()
        assert frame.payload_crc() == crc16(canonical_bytes(frame.payload))
        cached = frame._payload_crc
        assert cached is not None
        frame.checksum_ok()
        assert frame._payload_crc is cached


class TestFaultPlan:
    def test_default_plan_is_transparent(self):
        plan = FaultPlan()
        frame = make_frame()
        assert plan.apply(frame, 2) is frame

    def test_targeted_loss_hits_matching_frames_only(self):
        plan = FaultPlan()
        plan.lose_next(lambda f, node: node == 2, count=1)
        frame = make_frame()
        assert plan.apply(frame, 3) is frame        # wrong receiver
        assert plan.apply(frame, 2) is None         # lost
        assert plan.apply(frame, 2) is frame        # budget spent
        assert plan.losses.value == 1

    def test_targeted_corruption_returns_bad_copy(self):
        plan = FaultPlan()
        plan.corrupt_next(lambda f, node: True)
        frame = make_frame()
        seen = plan.apply(frame, 2)
        assert seen is not frame
        assert not seen.checksum_ok()
        assert frame.checksum_ok()                  # original untouched

    def test_probabilistic_loss_rate(self):
        plan = FaultPlan(rng=RngStreams(1), loss_rate=0.5)
        outcomes = [plan.apply(make_frame(), 2) for _ in range(400)]
        lost = sum(1 for o in outcomes if o is None)
        assert 120 < lost < 280

    def test_probabilistic_corruption(self):
        plan = FaultPlan(rng=RngStreams(1), corruption_rate=1.0)
        seen = plan.apply(make_frame(), 2)
        assert seen is not None and not seen.checksum_ok()
