"""Unit tests for frames, the wire encoding, checksums, and fault
injection."""

import contextlib
import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
import traceback

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import repro.demos.ids
import repro.demos.links
import repro.demos.messages
import repro.net.frames
import repro.net.transport
from repro import Program, System, SystemConfig
from repro.demos.ids import MessageId, ProcessId
from repro.demos.links import Link
from repro.demos.messages import (
    AliveReply,
    AreYouAlive,
    Checkpoint,
    Control,
    DeliveredMessage,
    GossipPull,
    GossipSupply,
    Message,
    ProcessCreated,
    ProcessCrashed,
    ProcessDestroyed,
    ReadOrder,
    RecoverAnswer,
    RecoverOffer,
    Recreate,
    RecoveryDone,
    Replay,
    StateQuery,
    StateReply,
)
from repro.errors import EncodingError, RecordCorruptionError, ReproError
from repro.net.frames import (
    BROADCAST,
    MAX_WIRE_VALUES,
    Frame,
    FrameKind,
    canonical_bytes,
    crc16,
    payload_classes,
    register_payload,
)
from repro.net.faults import FaultPlan
from repro.net.transport import Segment
from repro.parallel.wire import decode_frame_batch, encode_frame_batch
from repro.publishing.database import ProcessRecord
from repro.publishing.store import SegmentedLog, payload_digest
from repro.sim.rng import RngStreams

from fixtures import (
    CountingStreams,
    count_calls,
    crc16_bitwise,
    reference_apply,
)


def make_frame(payload="hello", dst=2):
    return Frame(kind=FrameKind.DATA, src_node=1, dst_node=dst,
                 payload=payload, size_bytes=128)


def make_message(body, seq=1, passed_link=None):
    pid = ProcessId(1, 2)
    return Message(MessageId(pid, seq), pid, ProcessId(2, 1), 0, 0, body,
                   passed_link)


def in_segment(body):
    return Segment(("u", 1), 1, 2, body)


def image_of(message):
    """The encoding ``message`` carries, or None."""
    return getattr(message, "_wire_image", None)


def logged(message):
    """A process record holding ``message``, appended and verified."""
    record = ProcessRecord(pid=message.dst, node=2, image="img",
                           log=SegmentedLog(4))
    record.record_message(message, 0)
    assert record.replay_cursor(verify=True).next().message is message
    return record


class Sender(Program):
    """Keeps its context and a link to itself, so a test can make it send
    any body; ``note`` is its state (``_ctx`` stays out of checkpoints)."""

    def __init__(self, note=None):
        super().__init__()
        self.note = note

    def setup(self, ctx):
        self._ctx = ctx
        self.link = ctx.create_link()


def sender_world():
    """A booted one-node world running a :class:`Sender`: (system, pid)."""
    system = System(SystemConfig(nodes=1))
    system.registry.register("test/sender", Sender)
    system.boot()
    pid = system.spawn_program("test/sender", node=1)
    system.run(1000)
    return system, pid


def encoder_of(exc):
    """The function whose ``canonical_bytes`` call raised ``exc``."""
    names = [entry.name for entry in traceback.extract_tb(exc.tb)]
    return names[names.index("canonical_bytes") - 1]


def refused_send(body):
    """A program sends ``body``: the EncodingError its kernel raised
    where it puts the message on the network."""
    system, pid = sender_world()
    sender = system.program_of(pid)
    sender._ctx.send(sender.link, body)
    with pytest.raises(EncodingError) as exc:
        system.run(1000)
    assert encoder_of(exc) == "_submit"
    return exc.value


@pytest.fixture(scope="module")
def kernel():
    """A live kernel, for its network send door: ``_submit`` encodes a
    message before the transport sees it, so a refused one changes
    nothing and the kernel serves every test of the module."""
    return sender_world()[0].nodes[1]


@contextlib.contextmanager
def registered(tag, cls):
    """``cls`` on the wire for one test: the registry is process-wide."""
    try:
        yield register_payload(tag)(cls)
    finally:
        repro.net.frames._PAYLOAD_CLASSES.pop(cls, None)


@dataclasses.dataclass(frozen=True)
class Holder:
    """A frozen record like ``Link``, whose field may hold anything."""
    held: object


@dataclasses.dataclass(eq=False)
class Cell:
    """A record that is not frozen: its field can be assigned."""
    value: object


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

    def test_unencodable_payload_is_rejected_where_it_is_encoded(self):
        """No silent ``repr`` fallback: building the frame encodes
        nothing, and reading its checksum raises, typed, whatever depth
        the stray value sits at; sent by a program, the same value
        raises in its kernel's send."""
        class Local:
            pass

        for stray in (object(), Local(), lambda: None):
            for payload in (stray, ("ok", [1, {"k": stray}]),
                            Segment(("u", 1), 1, 2, body=stray)):
                frame = make_frame(payload)
                with pytest.raises(EncodingError) as exc:
                    frame.checksum
                sent = refused_send(payload)
                for error in (exc.value, sent):
                    assert isinstance(error, ReproError)
                    assert isinstance(error, TypeError)
                    assert type(stray).__qualname__ in str(error)

    def test_unencodable_value_inside_a_message_leaves_no_image(
            self, kernel):
        """The image is written when the walk ends, so a walk that
        raises — the kernel's send-time encode, at any depth — leaves
        none."""
        for stray in (object(), lambda: None):
            for body in (stray, ("ok", (stray,)), ("ok", [1, {"k": stray}]),
                         frozenset({("ok", stray)})):
                inner = make_message(body)
                outer = make_message(("forwarded", inner), seq=2)
                for message in (inner, outer):
                    with pytest.raises(EncodingError) as exc:
                        kernel._submit(message, published=True)
                    assert type(stray).__qualname__ in str(exc.value)
                assert image_of(inner) is None and image_of(outer) is None

    def test_subclass_of_an_encodable_type_is_rejected(self):
        class Celsius(int):
            pass

        for value in (Celsius(3), DeliveredMessage(0, 0, None, ProcessId(1, 1))):
            frame = make_frame(value)
            with pytest.raises(EncodingError):
                frame.checksum
            refused_send(value)


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
            | st.one_of([st.builds(record, *[inner] * len(record._fields))
                         for record in Control])
            | st.builds(Segment, inner, _ints, _ints, inner, st.booleans(),
                        st.none() | _ints))


_values = st.recursive(_hashable, _containers, max_leaves=12)
_messages = st.builds(Message, _mids, _pids, _pids, _ints, _ints, _values,
                      st.none() | _links, st.integers(1, 1024),
                      st.booleans(), st.booleans())


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


def _deep_immutable(value):
    """Nothing in ``value`` can change: the independent notion of which
    messages may keep their image."""
    kind = type(value)
    if kind in (list, dict, set):
        return False
    if dataclasses.is_dataclass(value):
        return (kind.__dataclass_params__.frozen
                and all(_deep_immutable(getattr(value, f.name))
                        for f in dataclasses.fields(value)))
    if isinstance(value, (tuple, frozenset)):
        return all(_deep_immutable(m) for m in value)
    return True


def _self_containing():
    """Payloads that contain themselves, by every kind of edge."""
    own_list = []
    own_list.append(own_list)
    own_dict = {}
    own_dict["self"] = own_dict
    two_cycle = []
    two_cycle.append({"back": two_cycle})
    return {"list": own_list, "dict": own_dict, "list-dict": two_cycle}


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
        assert registered == {Segment, Message, Link, ProcessId, MessageId,
                              *Control}
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
        @dataclasses.dataclass(frozen=True)
        class Lone:
            only: tuple

        with registered("lone", Lone):
            assert (canonical_bytes(Lone((1, 2)))
                    == b"@lone;" + canonical_bytes((1, 2)))

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

    @given(_messages)
    def test_a_message_has_one_encoding_however_it_is_first_met(
            self, message):
        """Alone, nested in a Segment or a Replay, unpickled or
        ``replace``d: the same bytes, spliced whole where the message is
        nested, and an image that is kept equals a fresh walk."""
        def fresh():                    # ``message`` itself is never walked
            twin = copy.deepcopy(message)
            assert twin == message and image_of(twin) is None
            return twin

        alone, segmented, controlled = fresh(), fresh(), fresh()
        image = canonical_bytes(alone)
        assert image in canonical_bytes(in_segment(segmented))
        assert image in canonical_bytes(Replay(controlled, 1))
        unpickled = pickle.loads(pickle.dumps(alone))
        replaced = dataclasses.replace(alone)
        assert image_of(replaced) is None
        if sys.version_info >= (3, 10):     # 3.9 pickles the instance dict
            assert image_of(unpickled) is None
        twins = (alone, segmented, controlled, unpickled, replaced)
        for twin in twins:
            assert canonical_bytes(twin) == image
            assert payload_digest(twin) == payload_digest(alone)
        kept = image if _deep_immutable(message) else None
        assert [image_of(twin) for twin in twins] == [kept] * len(twins)

    def test_the_image_is_no_part_of_the_value(self):
        warm, cold = make_message(("add", 1)), make_message(("add", 1))
        canonical_bytes(warm)
        assert image_of(warm) is not None and image_of(cold) is None
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert "_wire_image" not in {f.name for f in dataclasses.fields(warm)}
        # frozen: FrozenInstanceError, or the TypeError 3.10/3.11 raise
        # for a name that is no field of a slotted dataclass
        with pytest.raises((AttributeError, TypeError)):
            warm._wire_image = b""
        assert image_of(warm) == canonical_bytes(cold)

    @pytest.mark.parametrize("empty, fill", [
        (list, lambda c: c.append(1)),
        (dict, lambda c: c.update(k=1)),
        (set, lambda c: c.add(1)),
    ], ids=["list", "dict", "set"])
    @pytest.mark.parametrize("wrap", [
        lambda c: c,
        lambda c: ("deep", ((c,),)),
        lambda c: frozenset({("member", Cell(c))}),
        lambda c: Link(ProcessId(1, 1), code=Holder(c)),
        lambda c: ("forwarded", make_message(c, seq=9)),
    ], ids=["body", "in-tuples", "in-a-frozenset", "in-frozen-records",
            "in-a-nested-message"])
    def test_a_mutable_container_at_any_depth_keeps_no_image(
            self, wrap, empty, fill):
        """...and so a change made to it after the message was framed,
        logged and verified reaches every checksum."""
        container = empty()
        with registered("holder", Holder), registered("cell", Cell):
            message = make_message(wrap(container))
            canonical_bytes(message)        # the sender kernel's encode
            assert make_frame(in_segment(message)).checksum_ok()
            record = logged(message)
            assert image_of(message) is None
            before = canonical_bytes(message), payload_digest(message)
            fill(container)
            assert canonical_bytes(message) != before[0]
            assert payload_digest(message) != before[1]
            with pytest.raises(RecordCorruptionError):
                record.replay_cursor(verify=True).next()

    def test_an_instance_that_is_not_frozen_keeps_no_image(self):
        with registered("cell", Cell):
            cell = Cell(1)
            message = make_message(("state", cell))
            before = canonical_bytes(message)
            assert image_of(message) is None
            cell.value = 2
            assert canonical_bytes(message) != before

    @pytest.mark.parametrize("kind", sorted(_self_containing()))
    def test_a_payload_that_contains_itself_is_a_typed_error(
            self, kind, kernel):
        """Bugfix regression: the walk used to queue such a payload's
        members for ever; inside a message the error surfaces from the
        kernel's send-time encode, on the sender's stack."""
        payload = _self_containing()[kind]
        with pytest.raises(EncodingError, match="contains itself"):
            canonical_bytes(payload)
        message = make_message(payload)
        with pytest.raises(EncodingError, match="contains itself"):
            kernel._submit(message, published=True)
        with pytest.raises(EncodingError, match="contains itself"):
            make_frame(in_segment(message)).checksum
        assert image_of(message) is None

    def test_cycles_through_whole_value_encodings_are_typed_errors(
            self, kernel):
        """A message in its own body, two messages in each other's, a
        record in its own set: each turn of these is a nested walk, not
        a longer queue."""
        own_body = []
        own_body.append(make_message(own_body))
        first_body, second_body = [], []
        first_body.append(make_message(second_body))
        second_body.append(make_message(first_body))
        with registered("cell", Cell):
            cell = Cell(None)
            cell.value = frozenset({cell})
            keyed = Cell(None)
            keyed.value = {(keyed,): 1}
            for payload in (own_body, first_body, cell, keyed):
                message = make_message(payload)
                with pytest.raises(EncodingError, match="contains itself"):
                    kernel._submit(message, published=True)
                assert image_of(message) is None

    def test_a_64_page_checkpoint_is_well_inside_the_bound(self):
        pages = [list(range(page, page + 128)) for page in range(64)]
        checkpoint = Checkpoint(
            ProcessId(2, 1),
            {"program_state": {"pages": pages, "seen": set(range(99))},
             "links": {1: Link(ProcessId(1, 1))}, "channels": None},
            consumed=0, dtk_processed=0, send_seq=9, pages=64)
        assert 64 * 128 < MAX_WIRE_VALUES // 4
        canonical_bytes(checkpoint)         # the kernel's send_control encode
        deep = None
        for _ in range(2000):               # depth alone is no obstacle
            deep = [deep]
        assert canonical_bytes(deep).startswith(b"[1:" * 2000)


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

    def test_a_warm_message_image_never_masks_rot(self):
        message = make_message(("add", 3), passed_link=Link(ProcessId(1, 2)))
        canonical_bytes(message)            # the sender kernel's encode
        frame = make_frame(in_segment(message))
        assert frame.checksum_ok() and image_of(message) is not None
        frame.corrupt()
        assert not frame.checksum_ok()
        frame.corrupt()
        assert frame.checksum_ok()
        plan = FaultPlan()
        plan.corrupt_next(lambda f, node: True)
        seen = plan.apply(frame, 2)
        assert seen.payload.body is message
        assert not seen.checksum_ok() and not seen.checksum_ok()
        assert frame.checksum_ok()
        again = make_frame(in_segment(message))     # a retransmission
        assert again.checksum == frame.checksum and again.checksum_ok()
        for twin in (dataclasses.replace(message, body=("add", 4)),
                     dataclasses.replace(message, passed_link=None)):
            forged = Frame(FrameKind.DATA, 1, 2, in_segment(twin), 128,
                           checksum=frame.checksum)
            assert not forged.checksum_ok()


class TestWalkedOnce:
    """Host cost without a clock: call events of, and made from,
    ``net/frames.py`` (each string walked costs two)."""

    @staticmethod
    def costs(body):
        """(the send's encode, then: a frame build — any transmission
        attempt —, a frame's checksum read, record digest, verified
        replay read, the replay control's frame read)."""
        message = make_message(body)
        first = count_calls(lambda: canonical_bytes(message),
                            within=repro.net.frames)
        record = logged(message)
        cursor = record.replay_cursor(verify=True)
        replay = Replay(message, 1)
        return first, [
            count_calls(fn, within=repro.net.frames) for fn in (
                lambda: make_frame(in_segment(message)),
                lambda: make_frame(in_segment(message)).checksum,
                lambda: payload_digest(message),
                cursor.next,
                lambda: make_frame(in_segment(replay)).checksum)]

    def test_an_immutable_body_is_walked_once(self):
        first, later = self.costs(tuple(f"word {i}" for i in range(200)))
        assert first > 400
        assert later[0] == 2                # __init__ and the id counter
        assert max(later) < 40              # 2, 11, 3, 3, 11; before: > 400 each
        assert self.costs(tuple(f"word {i}" for i in range(800)))[1] == later

    def test_a_list_body_is_walked_at_every_checksum(self):
        _, short = self.costs([f"word {i}" for i in range(200)])
        _, long = self.costs([f"word {i}" for i in range(800)])
        assert short[0] == long[0] == 2     # ... but never by a frame build
        assert min(short[1:]) > 400
        assert all(b - a >= 2 * 600 for a, b in zip(short[1:], long[1:]))

    def test_string_keys_cost_no_nested_walk(self, monkeypatch):
        walk, depths = repro.net.frames._walk, []
        monkeypatch.setattr(
            repro.net.frames, "_walk",
            lambda payload, depth: depths.append(depth) or walk(payload, depth))
        canonical_bytes({f"field_{i}": i for i in range(8)})
        assert depths == [0]
        canonical_bytes({(i,): i for i in range(8)})    # the contrast
        assert depths == [0] + [0] + [1] * 8


class TestKernelDoors:
    """A frame encodes nothing when it is built, so a program value with
    no wire encoding is refused where the kernel takes it in: a message
    body where the kernel puts the message on the network, spawn args
    and checkpoint state where it sends their control."""

    class Stray:
        """Neither a builtin value nor a registered payload class."""

    def test_a_body_raises_where_the_kernel_submits_it(self):
        assert "Stray" in str(refused_send(self.Stray()))

    def test_a_body_queued_behind_a_busy_lane_raises_at_its_submit(self):
        """Window 1: the first message's frame is lost, so the message
        waits for its retry, and the second queues behind it. The
        second's frame is built only when the first is acked; its
        refusal may not wait for that."""
        def carries_first(frame, node):
            body = getattr(frame.payload, "body", None)
            return isinstance(body, Message) and body.body == "first"

        system, pid = sender_world()
        sender = system.program_of(pid)
        system.faults.lose_next(carries_first)
        sender._ctx.send(sender.link, "first")
        sender._ctx.send(sender.link, self.Stray())
        transport = system.nodes[1].transport
        with pytest.raises(EncodingError) as exc:
            system.run(1000)
        assert encoder_of(exc) == "_submit"
        assert list(transport._in_flight) == [(pid, 1)]     # "first"
        assert transport.stats.retransmissions.value == 0

    def test_spawn_args_raise_where_the_kernel_creates_the_process(self):
        """... and before the pcb enters the node's table: a refused
        spawn leaves no pid behind, "running" but never started and
        unknown to the recorder."""
        system, _ = sender_world()
        table = system.nodes[1].processes
        before = set(table)
        with pytest.raises(EncodingError) as exc:
            system.spawn_program("test/sender", args=(self.Stray(),))
        assert encoder_of(exc) == "send_control"
        assert set(table) == before
        system.run(5000)
        assert set(table) == before

    def test_checkpoint_state_raises_where_the_kernel_sends_it(self):
        system, pid = sender_world()
        system.program_of(pid).note = {"clock": self.Stray()}
        with pytest.raises(EncodingError) as exc:
            system.checkpoint(pid)
        assert encoder_of(exc) == "send_control"


class TestSegmentRecord:
    """``Segment`` is a ``NamedTuple`` now; nothing that reads one, and
    no byte it puts on the wire, may tell."""

    P1, P2 = ProcessId(1, 2), ProcessId(2, 1)
    MESSAGE = Message(MessageId(P1, 7), P1, P2, 3, 4, ("add", 5),
                      Link(P1, channel=0, code=1), 128)
    SHAPES = {
        "bare": Segment(("probe", 1), 1, 2, "x"),
        "unguaranteed_broadcast": Segment(("ctl", 3, 9), 3, BROADCAST, None,
                                          guaranteed=False),
        "stamped": Segment((1, 2, 7), 1, 2, ("req", 1, 2.5, b"\x00\xff"),
                           True, 41),
        "message": Segment(tuple(MESSAGE.msg_id), 1, 2, MESSAGE),
        "control": Segment(("ctl", 2, 1), 2, 99, Checkpoint(
            P2, {"k": [1, 2]}, consumed=0, dtk_processed=0, send_seq=0,
            pages=4)),
        "containers": Segment((300, -1), 256, 0,
                              {"s": frozenset({1, 2}), "l": [True, None]},
                              False, 0),
    }
    #: canonical_bytes of each shape at the commit where Segment was
    #: still a frozen dataclass; "control" re-pinned when a control
    #: became one record class per kind
    PINNED = {
        "bare": b'@seg;(2:i1;i2;s1:xTNs5:probei1;',
        "unguaranteed_broadcast": b'@seg;(3:i3;i-1;NFNs3:ctli3;i9;',
        "stamped": b'@seg;(3:i1;i2;(4:Ti41;i1;i2;i7;s3:reqi1;'
                   b'f@\x04\x00\x00\x00\x00\x00\x00b2:\x00\xff',
        "message": b'@seg;(2:i1;i2;@msg;@mid;@pid;@pid;i3;i4;(2:@link;i128;'
                   b'FF@pid;i7;i1;i2;i2;i1;s3:addi5;@pid;i0;i1;Fi1;i2;i1;'
                   b'i2;TN@pid;i7;i1;i2;',
        "control": b'@seg;(3:i2;i99;@checkpoint;TNs3:ctli2;i1;@pid;{1:s1:k'
                   b'i0;i0;i0;i4;i2;i1;[2:i1;i2;',
        "containers": b'@seg;(2:i256;i0;{2:s1:ls1:sFi0;i300;i-1;[2:#2:i1;i2;'
                      b'TN',
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_bytes_are_the_dataclass_bytes(self, shape):
        assert canonical_bytes(self.SHAPES[shape]) == self.PINNED[shape]

    def test_a_bare_tuple_of_the_same_fields_encodes_differently(self):
        segment = self.SHAPES["stamped"]
        assert tuple(segment) == segment        # equal as tuples, and yet
        assert canonical_bytes(tuple(segment)) != canonical_bytes(segment)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_survives_pickle_and_the_pool_wire(self, shape):
        segment = self.SHAPES[shape]
        twin = pickle.loads(pickle.dumps(segment))
        assert type(twin) is Segment and twin == segment
        assert twin.uid == segment.uid and twin.stream_seq == segment.stream_seq
        frame = Frame(FrameKind.DATA, 1, 2, segment, 160)
        (_, _, _, landed, _), = decode_frame_batch(
            encode_frame_batch([(1.5, "gw", 3, frame, 1)]))
        assert type(landed.payload) is Segment and landed == frame
        assert landed.checksum_ok()

    def test_fields_read_by_name_and_cannot_be_set(self):
        segment = Segment(("u", 1), 1, 2, "body")
        assert (segment.guaranteed, segment.stream_seq) == (True, None)
        assert segment._replace(stream_seq=3).stream_seq == 3
        with pytest.raises(AttributeError):
            segment.body = "other"


class TestControlRecords:
    """One record class per control kind: each is on the wire as its
    kind name and its fields in declaration order."""

    P1, P2 = TestSegmentRecord.P1, TestSegmentRecord.P2
    MESSAGE = TestSegmentRecord.MESSAGE
    RECORDS = {
        "AreYouAlive": AreYouAlive(),
        "AliveReply": AliveReply(2),
        "ProcessCreated": ProcessCreated(P2, 2, "test/counter", (5,)),
        "ProcessDestroyed": ProcessDestroyed(P2, 2),
        "ProcessCrashed": ProcessCrashed(P2, 2, "fault"),
        "ReadOrder": ReadOrder(P2, MessageId(P1, 7), MessageId(P1, 6)),
        "Checkpoint": Checkpoint(P2, {"consumed": 3}, 3, 0, 1, 2),
        "Recreate": Recreate(P2, "test/counter", (5,), (Link(P1),), None,
                             4, True, 4, 2),
        "Replay": Replay(MESSAGE, 2),
        "RecoveryDone": RecoveryDone(P2, 2),
        "StateQuery": StateQuery(3),
        "StateReply": StateReply(2, 3, {P2: "running"}),
        "RecoverOffer": RecoverOffer(2, 91),
        "RecoverAnswer": RecoverAnswer(2, 90, True),
        "GossipPull": GossipPull([((1, 2), 4, 7)]),
        "GossipSupply": GossipSupply(MESSAGE),
    }
    PINNED = {
        "AliveReply": b'@alive_reply;i2;',
        "AreYouAlive": b'@are_you_alive;',
        "Checkpoint": b'@checkpoint;@pid;{1:s8:consumedi3;i0;i1;i2;i2;i1;i3;',
        "GossipPull": b'@gossip_pull;[1:(3:(2:i4;i7;i1;i2;',
        "GossipSupply": b'@gossip_supply;@msg;@mid;@pid;@pid;i3;i4;(2:@lin'
                        b'k;i128;FF@pid;i7;i1;i2;i2;i1;s3:addi5;@pid;i0;i1'
                        b';Fi1;i2;i1;i2;',
        "ProcessCrashed": b'@process_crashed;@pid;i2;s5:faulti2;i1;',
        "ProcessCreated": b'@process_created;@pid;i2;s12:test/counter(1:(0'
                          b':Ti4;i2;i1;i5;',
        "ProcessDestroyed": b'@process_destroyed;@pid;i2;i2;i1;',
        "ReadOrder": b'@read_order;@pid;@mid;@mid;i2;i1;@pid;i7;@pid;i6;i1'
                     b';i2;i1;i2;',
        "RecoverAnswer": b'@recover_answer;i2;i90;T',
        "RecoverOffer": b'@recover_offer;i2;i91;',
        "RecoveryDone": b'@recovery_done;@pid;i2;i2;i1;',
        "Recreate": b'@recreate;@pid;s12:test/counter(1:(1:Ni4;Ti4;i2;i2;i'
                    b'1;i5;@link;@pid;i0;i0;Fi1;i2;',
        "Replay": b'@replay;@msg;@mid;@pid;@pid;i3;i4;(2:@link;i128;FF@pid'
                  b';i7;i1;i2;i2;i1;s3:addi5;@pid;i0;i1;Fi1;i2;i1;i2;i2;',
        "StateQuery": b'@state_query;i3;',
        "StateReply": b'@state_reply;i2;i3;{1:@pid;i2;i1;s7:running',
    }

    def test_one_example_per_record_class(self):
        assert sorted(self.RECORDS) == sorted(cls.__name__ for cls in Control)
        assert all(type(record).__name__ == name
                   for name, record in self.RECORDS.items())

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_bytes_are_pinned(self, name):
        assert canonical_bytes(self.RECORDS[name]) == self.PINNED[name]

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_survives_pickle_and_the_pool_wire(self, name):
        record = self.RECORDS[name]
        twin = pickle.loads(pickle.dumps(record))
        assert type(twin) is type(record) and twin == record
        frame = Frame(FrameKind.DATA, 1, 2, in_segment(record), 160)
        (_, _, _, landed, _), = decode_frame_batch(
            encode_frame_batch([(1.5, "gw", 3, frame, 1)]))
        assert type(landed.payload.body) is type(record) and landed == frame
        assert landed.checksum_ok()


_RECEIVERS = st.integers(1, 4)
_FAULT_OPS = st.one_of(
    st.tuples(st.just("deliver"), st.integers(0, 2), _RECEIVERS),
    st.tuples(st.just("deliver"), st.integers(0, 2), _RECEIVERS),
    st.tuples(st.sampled_from(["lose_next", "corrupt_next"]), _RECEIVERS,
              st.integers(1, 3)),
    st.tuples(st.just("partition"),
              st.sampled_from([([1], [2]), ([1, 2], [3, 4]), ([3], [1, 4])])),
    st.tuples(st.just("corrupt_rule"), _RECEIVERS),
    st.tuples(st.just("lift"), st.integers(0, 5)),
    st.tuples(st.just("rate"),
              st.sampled_from(["loss_rate", "corruption_rate"]),
              st.sampled_from([0.0, 0.0, 0.4, 1.0])),
    st.tuples(st.just("rng"), st.sampled_from([None, 7, 8])),
)


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

    def test_a_plan_with_nothing_configured_looks_no_stream_up(self):
        """The plan every ``System`` carries has streams but, on most
        runs, no rate: a frame must not pay for a stream lookup."""
        streams = CountingStreams(1)
        plan = FaultPlan(rng=streams)
        frame = make_frame()
        assert all(plan.apply(frame, node) is frame for node in range(8))
        rule = plan.partition([1], [3])             # rules draw nothing
        assert plan.apply(frame, 2) is frame and plan.apply(frame, 3) is None
        plan.remove_rule(rule)
        assert streams.lookups == 0
        plan.loss_rate = 1.0                        # and now it must
        assert plan.apply(frame, 2) is None
        assert streams.lookups == 1 and streams.draws() == {"faults/2": 1}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_FAULT_OPS, max_size=40))
    @example([("rate", "loss_rate", 0.4), ("deliver", 0, 2), ("rng", 8),
              ("deliver", 0, 2), ("deliver", 1, 3), ("rng", None),
              ("deliver", 0, 2), ("rng", 7), ("deliver", 0, 2),
              ("rate", "loss_rate", 0.0), ("rate", "corruption_rate", 1.0),
              ("lose_next", 2, 1), ("deliver", 2, 2), ("deliver", 2, 2)])
    def test_apply_decides_and_draws_as_the_uncached_apply_did(self, ops):
        """Rates, ``rng``, rules and targeted faults all change between
        deliveries (chaos adds and lifts partitions, tests set rates):
        the kept draw and the nothing-configured exit may never show.
        Two plans get the same changes; one decides with ``apply``, the
        other with the transcribed original. Same fates, same counters,
        and every stream of every ``rng`` drawn from equally often."""
        frames = [Frame(FrameKind.DATA, src, 2, "p", 64) for src in (1, 2, 3)]
        plans = [FaultPlan(rng=CountingStreams(7)) for _ in range(2)]
        decide = [FaultPlan.apply, reference_apply]
        streams = [[plan.rng] for plan in plans]
        rules = [[], []]
        for op in ops:
            fates = []
            for side, plan in enumerate(plans):
                if op[0] == "deliver":
                    seen = decide[side](plan, frames[op[1]], op[2])
                    fates.append("lost" if seen is None else
                                 "intact" if seen is frames[op[1]] else
                                 "corrupt" if not seen.checksum_ok() else seen)
                elif op[0] in ("lose_next", "corrupt_next"):
                    getattr(plan, op[0])(
                        lambda f, node, want=op[1]: node == want, op[2])
                elif op[0] == "partition":
                    rules[side].append(plan.partition(*op[1]))
                elif op[0] == "corrupt_rule":
                    rules[side].append(plan.add_rule(
                        lambda f, node, want=op[1]: node == want, "corrupt"))
                elif op[0] == "lift" and rules[side]:
                    plan.remove_rule(rules[side].pop(op[1] % len(rules[side])))
                elif op[0] == "rate":
                    setattr(plan, op[1], op[2])
                elif op[0] == "rng":
                    plan.rng = None if op[1] is None else CountingStreams(op[1])
                    streams[side].append(plan.rng)
            assert len(set(fates)) <= 1, (op, fates)
        for name in ("losses", "corruptions", "partition_drops"):
            assert getattr(plans[0], name).value == getattr(plans[1], name).value
        assert ([(r.name, r.hits) for r in plans[0]._rules]
                == [(r.name, r.hits) for r in plans[1]._rules])
        assert ([(f.action, f.remaining) for f in plans[0]._targeted]
                == [(f.action, f.remaining) for f in plans[1]._targeted])
        assert ([s and s.draws() for s in streams[0]]
                == [s and s.draws() for s in streams[1]])
