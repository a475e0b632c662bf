"""Unit tests for frames, the wire encoding, checksums, and fault
injection."""

import dataclasses
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import repro.demos.ids
import repro.demos.links
import repro.demos.messages
import repro.net.transport
from repro.demos.ids import MessageId, ProcessId
from repro.demos.links import Link
from repro.demos.messages import Control, DeliveredMessage, Message
from repro.errors import EncodingError, ReproError
from repro.net.frames import (
    BROADCAST,
    Frame,
    FrameKind,
    canonical_bytes,
    crc16,
    payload_classes,
    register_payload,
)
from repro.net.faults import FaultPlan
from repro.net.transport import Segment
from repro.sim.rng import RngStreams

from fixtures import crc16_bitwise


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
        """``binascii.crc_hqx`` seeded with 0xFFFF must agree
        byte-for-byte with the bit-loop oracle on random payloads."""
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

    def test_unencodable_payload_is_rejected_at_construction(self):
        """No silent ``repr`` fallback: the sender's ``Frame(...)`` call
        raises, typed, whatever depth the stray value sits at."""
        class Local:
            pass

        for stray in (object(), Local(), lambda: None):
            for payload in (stray, ("ok", [1, {"k": stray}]),
                            Segment(("u", 1), 1, 2, body=stray)):
                with pytest.raises(EncodingError) as exc:
                    make_frame(payload)
                assert isinstance(exc.value, ReproError)
                assert isinstance(exc.value, TypeError)
                assert type(stray).__qualname__ in str(exc.value)

    def test_subclass_of_an_encodable_type_is_rejected(self):
        class Celsius(int):
            pass

        with pytest.raises(EncodingError):
            make_frame(Celsius(3))
        with pytest.raises(EncodingError):
            make_frame(DeliveredMessage(0, 0, None, ProcessId(1, 1)))


# Text and ints drawn from the encoding's own delimiters and digits, so
# a framing bug (a value that reads as two, or as a header) has the
# best chance of colliding.
_text = st.text(alphabet="01:;@(i{s", max_size=4)
_ints = st.integers(-2, 12) | st.integers()
_scalars = (st.none() | st.booleans() | _ints | _text
            | st.floats(allow_nan=False) | st.binary(max_size=4))
_pids = st.builds(ProcessId, _ints, _ints)
_mids = st.builds(MessageId, _pids, _ints)
_links = st.builds(Link, _pids, _ints, _ints, st.booleans())
_hashable = st.recursive(
    _scalars | _pids | _mids | _links,
    lambda inner: (st.tuples(inner) | st.tuples(inner, inner)
                   | st.frozensets(inner, max_size=3)),
    max_leaves=6)


def _containers(inner):
    return (st.lists(inner, max_size=3)
            | st.tuples(inner, inner)
            | st.dictionaries(_hashable, inner, max_size=4)
            | st.sets(_hashable, max_size=4)
            | st.builds(Message, _mids, _pids, _pids, _ints, _ints, inner,
                        st.none() | _links, st.integers(1, 1024),
                        st.booleans(), st.booleans())
            | st.builds(Control, _text,
                        st.dictionaries(_text, inner, max_size=4), _ints)
            | st.builds(Segment, inner, _ints, _ints, inner, st.booleans(),
                        st.none() | _ints))


_values = st.recursive(_hashable, _containers, max_leaves=12)


def _reinserted(value, rng):
    """An equal value whose every dict and set was filled in another
    order."""
    kind = type(value)
    if kind is dict:
        entries = [(_reinserted(k, rng), _reinserted(v, rng))
                   for k, v in value.items()]
        rng.shuffle(entries)
        return dict(entries)
    if kind in (set, frozenset):
        members = [_reinserted(m, rng) for m in value]
        rng.shuffle(members)
        return kind(members)
    if kind in (list, tuple):
        return kind(_reinserted(m, rng) for m in value)
    if dataclasses.is_dataclass(value):
        return kind(*(_reinserted(getattr(value, f.name), rng)
                      for f in dataclasses.fields(value)))
    if isinstance(value, tuple):                # a NamedTuple
        return kind(*(_reinserted(m, rng) for m in value))
    return value


def _typed(value):
    """``value`` with every type spelled out, orderless where the value
    is: the independent notion of "same types, same contents"."""
    kind = type(value)
    if kind is dict:
        body = sorted(((_typed(k), _typed(v)) for k, v in value.items()),
                      key=repr)
    elif kind in (set, frozenset):
        body = sorted((_typed(m) for m in value), key=repr)
    elif dataclasses.is_dataclass(value):
        body = [_typed(getattr(value, f.name))
                for f in dataclasses.fields(value)]
    elif isinstance(value, (tuple, list)):
        body = [_typed(m) for m in value]
    elif kind is float:
        body = value.hex()                      # keeps 0.0 and -0.0 apart
    else:
        body = value
    return (kind.__qualname__, body)


_OTHER_HASHSEED = """
import pickle, sys
from repro.net.frames import canonical_bytes
values = pickle.load(sys.stdin.buffer)
sys.stdout.buffer.write(pickle.dumps([canonical_bytes(v) for v in values]))
"""


class TestCanonicalBytes:
    """The wire encoding's contract: a function of types and contents
    and nothing else, and one-to-one on them."""

    @given(_values, st.randoms(use_true_random=False))
    def test_insertion_order_never_reaches_the_bytes(self, value, rng):
        twin = _reinserted(value, rng)
        assert _typed(twin) == _typed(value)
        assert canonical_bytes(twin) == canonical_bytes(value)

    @given(_values, _values)
    @example(1, True)
    @example(1, 1.0)
    @example(1, "1")
    @example(True, 1.0)
    @example("1", b"1")
    @example(0, None)
    @example((1, (2,)), ((1, 2),))
    @example((1, 2), [1, 2])
    @example((1, 2), ProcessId(1, 2))
    @example(ProcessId(1, 2), Link(ProcessId(1, 2)))
    @example(MessageId(ProcessId(1, 2), 3), (ProcessId(1, 2), 3))
    @example({1, 2}, frozenset({1, 2}))
    @example({"a": 1}, (("a", 1),))
    @example({"a": {"b": 1}}, {"a": {}, "b": 1})
    @example(((1,), 2), (1, (2,)))
    @example(("1;i2",), (1, 2))
    @example([[], [[]]], [[[]], []])
    @example("ab", ("a", "b"))
    @example(("a", "sb"), ("as", "b"))
    @example(ProcessId(1, 2), MessageId(1, 2))
    @example(12, (1, 2))
    def test_different_types_or_contents_give_different_bytes(self, a, b):
        assume(_typed(a) != _typed(b))
        assert canonical_bytes(a) != canonical_bytes(b)

    @settings(max_examples=3, deadline=None)
    @given(st.lists(_values, min_size=1, max_size=30))
    def test_same_bytes_under_another_hash_seed(self, values):
        """Sets and dicts of strings iterate in another order in a
        process with another ``PYTHONHASHSEED``; the bytes must not."""
        here = [canonical_bytes(value) for value in values]
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        for seed in ("0", "1983"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", _OTHER_HASHSEED], env=env,
                input=pickle.dumps(values), stdout=subprocess.PIPE,
                check=True, timeout=60)
            assert pickle.loads(done.stdout) == here

    def test_every_wire_class_is_registered_or_ruled_out(self):
        """A new frozen dataclass or NamedTuple beside the payload
        classes fails here until someone decides which it is."""
        never_crosses_the_wire = {DeliveredMessage}
        candidates = set()
        for module in (repro.net.transport, repro.demos.messages,
                       repro.demos.links, repro.demos.ids):
            for cls in vars(module).values():
                if (not isinstance(cls, type)
                        or cls.__module__ != module.__name__):
                    continue
                frozen = (dataclasses.is_dataclass(cls)
                          and cls.__dataclass_params__.frozen)
                if frozen or (issubclass(cls, tuple)
                              and hasattr(cls, "_fields")):
                    candidates.add(cls)
        registered = set(payload_classes())
        assert registered == {Segment, Message, Control, Link, ProcessId,
                              MessageId}
        assert not registered & never_crosses_the_wire
        assert candidates == registered | never_crosses_the_wire

    def test_registration_needs_a_fresh_tag_and_a_record_class(self):
        with pytest.raises(ValueError):
            register_payload("seg")(DeliveredMessage)   # Segment's tag
        with pytest.raises(ValueError):
            register_payload("not an identifier")
        with pytest.raises(TypeError):
            register_payload("plain")(type("Plain", (), {}))
        assert DeliveredMessage not in payload_classes()

    def test_one_field_dataclass_encodes_its_field(self):
        from repro.net import frames

        @dataclasses.dataclass(frozen=True)
        class Lone:
            only: tuple

        try:
            register_payload("lone")(Lone)
            assert (canonical_bytes(Lone((1, 2)))
                    == b"@lone;" + canonical_bytes((1, 2)))
        finally:                # the registry is process-wide
            frames._PAYLOAD_CLASSES.pop(Lone, None)

    def test_message_encoding_covers_every_field(self):
        """One field changed at a time, each must move the bytes."""
        pid = ProcessId(1, 2)
        base = Message(MessageId(pid, 1), pid, ProcessId(2, 1), 0, 0, "b")
        seen = {canonical_bytes(base)}
        for change in ({"msg_id": MessageId(pid, 2)}, {"src": ProcessId(1, 3)},
                       {"dst": ProcessId(2, 2)}, {"channel": 1}, {"code": 1},
                       {"body": "c"}, {"passed_link": Link(pid)},
                       {"size_bytes": 64}, {"deliver_to_kernel": True},
                       {"recovery_marker": True}):
            seen.add(canonical_bytes(dataclasses.replace(base, **change)))
        assert len(seen) == 1 + len(dataclasses.fields(Message))


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
