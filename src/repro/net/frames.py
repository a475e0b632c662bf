"""Frames, the wire encoding, and checksums.

The DEMOS/MP link layer "wraps all messages with a rotating checksum and
checks the message type for validity. Any messages with an incorrect
checksum are discarded" (§4.3.3). We model that literally: every frame
carries a CRC over a canonical encoding of its payload, and the
receiving link layer discards a frame whose CRC does not match. Fault
injection corrupts the carried CRC, which is indistinguishable from bit
rot on the wire. A frame nothing touched carries its payload's CRC by
definition and computes it only when something reads it (:class:`Frame`).

A checksum only helps if two processes compute the same value from the
same payload, so the encoding is explicit: :func:`canonical_bytes` walks
a closed set of types (the builtin values plus the payload classes their
owning modules register with :func:`register_payload`) and raises
:class:`~repro.errors.EncodingError` for anything else. It never looks
at ``repr``, ``hash`` or an address. The recorder's per-record checksum
(:func:`repro.publishing.store.payload_digest`) is computed over the
same encoding.

A message is stored once and read back byte for byte (§3.2.3, §4.4.3),
so its encoding is computed once as well: a :class:`WireImage` instance
(a ``Message``) that holds nothing that can change keeps its bytes, and
its frames, its record digest and its replays all read them. The first
walk is the kernel's, where a program's message enters the network
(:meth:`repro.demos.kernel.MessageKernel._submit`): that is also where
a value with no encoding raises.

The CRC runs on every frame whose checksum is read or checked by
recomputation, so it runs in C:
:func:`crc16` is ``binascii.crc_hqx`` (CRC-16/CCITT, initial value
``0xFFFF``). ``tests/fixtures.py`` keeps the bit-at-a-time loop as the
oracle and ``tests/test_net_frames.py`` pins the two to identical
outputs.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from binascii import crc_hqx
from enum import Enum
from operator import attrgetter, itemgetter
from struct import pack
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.errors import ConfigError, EncodingError

#: Destination id meaning "every attached interface".
BROADCAST = -1

_frame_counter = itertools.count(1)


class DeadLetter(NamedTuple):
    """One guaranteed item its carrier finally gave up on.

    ``origin`` is the node id whose transport exhausted its retries, or
    the gateway id that lost custody; ``payload`` is the transport
    :class:`~repro.net.transport.Segment` (node/recorder transports) or
    the :class:`Frame` (gateway custody loss). Tuple-shaped so existing
    ``(origin, payload, attempts)`` unpacking keeps working.
    """

    origin: int
    payload: Any
    attempts: int


def crc16(data: bytes) -> int:
    """CRC-16/CCITT over ``data`` — the frame checksum.

    A real rotating checksum rather than Python's ``hash`` so that the
    value is stable across runs and processes.
    """
    return crc_hqx(data, 0xFFFF)


# ----------------------------------------------------------------------
# the wire encoding
# ----------------------------------------------------------------------
#: The walk refuses a payload past this many values, or nested past this
#: many whole-value encodings: a container that contains itself has no
#: encoding and would otherwise be walked for ever. Every cycle passes
#: through a ``list``, a ``dict``, a non-frozen instance or a nested
#: encode, so only those are counted.
MAX_WIRE_VALUES = 1 << 16
MAX_WIRE_NESTING = 32

#: what a registered class is to the walk
_PLAIN, _KEEPS_IMAGE, _MUTABLE = 0, 1, 2
#: payload class -> (header bytes, field getter or None for a NamedTuple,
#: which is iterated directly, one of the three natures above)
_PAYLOAD_CLASSES: Dict[type, Tuple[bytes, Optional[Callable], int]] = {}
_FIRST = itemgetter(0)
#: node ids, channels, codes and most sequence numbers: nine ints in ten
#: on the wire are below 256, and a lookup is half the cost of a format
_SMALL_INTS = tuple(b"i%d;" % n for n in range(256))
#: encoded ``str`` dict keys. Checkpoint and program-state keys are a
#: few dozen strings written over and over; past the bound a new key is
#: simply encoded each time.
_KEY_IMAGES: Dict[str, bytes] = {}
_KEY_MEMO_SIZE = 256
_keep_image = object.__setattr__        # past a frozen dataclass's own


class WireImage:
    """Base of a payload class whose instances carry their encoding.

    "The message is its bytes": an instance of a registered subclass
    that :func:`canonical_bytes` walked without meeting anything mutable
    keeps the result (its *image*), and every later checksum of it — the
    frame of each transmission attempt, the recorder's record digest,
    the verified replay read, the ``replay`` control — reads the image
    instead of walking the fields again. The image is one slot, not a
    dataclass field: ``==``, ``hash``, ``repr``, ``fields()``,
    ``replace()`` and pickling never see it, so a twin made by
    ``replace()`` or by unpickling starts without one. (Python 3.9
    has no slotted dataclasses; there the subclass has an instance dict,
    the image lives in it and a pickle carries it along — the bytes of
    an equal message, so still the right ones.)

    Only :class:`~repro.demos.messages.Message` opts in. A ``Segment``
    and a control record (:data:`repro.demos.messages.Control`) keep no
    image: both are ``NamedTuple`` records with no slot to hold one, a
    control record is built per send, and a Segment is read a second
    time only by a retransmission.
    """

    __slots__ = ("_wire_image",) if sys.version_info >= (3, 10) else ()


def register_payload(tag: str):
    """Class decorator: make a dataclass or ``NamedTuple`` encodable.

    The module that owns a payload class registers it (so ``net`` never
    imports the layers above it)::

        @register_payload("seg")
        @dataclass(frozen=True)
        class Segment: ...

    An instance encodes as ``@tag;`` followed by every field in
    declaration order, so a field added later is covered without
    touching the encoder. ``tag`` is the class's name on the wire: it
    must be unique, and renaming the class does not change the bytes.
    A frozen dataclass that inherits :class:`WireImage` keeps its image.
    """
    if not (tag.isascii() and tag.isidentifier()):
        raise ConfigError(f"payload tag must be an ASCII identifier: {tag!r}")
    header = b"@%b;" % tag.encode("ascii")

    def register(cls: type) -> type:
        if any(header == entry[0] for entry in _PAYLOAD_CLASSES.values()):
            raise ConfigError(f"payload tag {tag!r} is already registered")
        if dataclasses.is_dataclass(cls):
            names = [f.name for f in dataclasses.fields(cls)]
            fields = attrgetter(*names)
            if len(names) == 1:
                only = fields           # one name: attrgetter returns no tuple

                def fields(value):
                    return (only(value),)
            frozen = cls.__dataclass_params__.frozen
        elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
            fields = None
            frozen = True
        else:
            raise EncodingError(f"{cls.__qualname__} is neither a dataclass "
                            f"nor a NamedTuple")
        nature = (_MUTABLE if not frozen
                  else _KEEPS_IMAGE if issubclass(cls, WireImage) else _PLAIN)
        _PAYLOAD_CLASSES[cls] = (header, fields, nature)
        return cls
    return register


def payload_classes() -> Tuple[type, ...]:
    """Every class registered with :func:`register_payload`."""
    return tuple(_PAYLOAD_CLASSES)


def canonical_bytes(payload: Any) -> bytes:
    """The deterministic byte encoding every checksum is computed over.

    Encodable values: ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes``, ``tuple``, ``list``, ``dict``, ``set``, ``frozenset`` and
    instances of classes registered with :func:`register_payload`,
    nested to any depth. Types are matched exactly and tagged, so ``1``,
    ``True``, ``1.0`` and ``"1"`` all differ; dict entries are ordered
    by their encoded key and set members by their encoding, so
    insertion order and ``PYTHONHASHSEED`` never reach a checksum.
    Anything else raises :class:`~repro.errors.EncodingError`, and so
    does a payload of more than :data:`MAX_WIRE_VALUES` values or one
    that contains itself.

    Layout: a scalar is a tag and a terminated number or a
    length-prefixed run. A container writes its header (tag and member
    count, or ``@tag;`` for a payload class, whose count is fixed) where
    it stands and its members after everything already waiting, so the
    walk is one loop with no call per value. Three kinds of value are
    instead written whole where they stand, by one nested walk each: a
    dict key that is not a ``str``, a set member, and an instance of an
    image-keeping class (:class:`WireImage`) inside another payload —
    whose bytes are therefore the same contiguous run wherever it
    travels, the run ``canonical_bytes`` of it alone returns. Every
    piece is self-delimiting and the order is fixed by the headers (a
    reader that meets an image-keeping header below the root reads one
    complete value there, and a complete value says where it ends), so
    equal bytes mean equal values of equal types.

    The image is kept only when the walk met nothing that can change —
    no ``list``, ``dict`` or ``set``, no instance of a registered class
    that is not frozen, no nested instance that could not keep its own.
    A message with such a body is legal and is walked again at every
    checksum, so a container mutated after the message was logged still
    fails the record's digest.
    """
    if isinstance(payload, WireImage):
        image = getattr(payload, "_wire_image", None)
        if image is not None:
            return image
    return _walk(payload, 0)[0]


def _walk(payload: Any, depth: int) -> Tuple[bytes, bool]:
    """``payload``'s encoding, and whether nothing in it can change;
    leaves the encoding in a root that keeps its image."""
    if depth > MAX_WIRE_NESTING:
        raise _unbounded()
    classes = _PAYLOAD_CLASSES
    keeps, immutable = False, True
    out = bytearray()
    queue = [payload]           # values not yet written, in order
    for value in queue:         # grows while it is walked
        kind = type(value)      # exact: a subclass is a different type
        if kind is int:
            out += (_SMALL_INTS[value] if 0 <= value < 256
                    else b"i%d;" % value)
        elif kind is bool:
            out += b"T" if value else b"F"
        elif kind is str:
            text = value.encode("utf-8", "surrogatepass")
            out += b"s%d:" % len(text)
            out += text
        elif kind in classes:
            header, fields, nature = classes[kind]
            if nature:
                if nature == _MUTABLE:
                    immutable = False
                    if len(queue) > MAX_WIRE_VALUES:
                        raise _unbounded()
                elif value is payload:
                    keeps = True
                else:
                    # whole and in place: the bytes it carries
                    image = getattr(value, "_wire_image", None)
                    if image is None:
                        image, kept = _walk(value, depth + 1)
                        immutable = immutable and kept
                    out += image
                    continue
            out += header
            queue += value if fields is None else fields(value)
        elif value is None:
            out += b"N"
        elif kind is tuple:
            out += b"(%d:" % len(value)
            queue += value
        elif kind is dict:
            # keys whole and in place, in encoded order; values wait
            immutable = False
            if len(queue) > MAX_WIRE_VALUES:
                raise _unbounded()
            out += b"{%d:" % len(value)
            entries = [((_KEY_IMAGES.get(key) or _key_image(key))
                        if type(key) is str else _walk(key, depth + 1)[0],
                        item) for key, item in value.items()]
            entries.sort(key=_FIRST)
            for key, item in entries:
                out += key
                queue.append(item)
        elif kind is list:
            immutable = False
            if len(queue) > MAX_WIRE_VALUES:
                raise _unbounded()
            out += b"[%d:" % len(value)
            queue += value
        elif kind is float:
            out += b"f"
            out += pack(">d", value)
        elif kind is bytes:
            out += b"b%d:" % len(value)
            out += value
        elif kind is set or kind is frozenset:
            if kind is set:
                immutable = False
            out += (b"<%d:" if kind is set else b"#%d:") % len(value)
            for member, kept in sorted([_walk(member, depth + 1)
                                        for member in value]):
                out += member
                immutable = immutable and kept
        else:
            raise EncodingError(
                f"cannot encode {kind.__module__}.{kind.__qualname__} for "
                f"the wire: send builtin values or a class registered "
                f"with repro.net.frames.register_payload")
    image = bytes(out)
    if keeps and immutable:
        _keep_image(payload, "_wire_image", image)
    return image, immutable


def _key_image(key: str) -> bytes:
    text = key.encode("utf-8", "surrogatepass")
    image = b"s%d:%b" % (len(text), text)
    if len(_KEY_IMAGES) < _KEY_MEMO_SIZE:
        _KEY_IMAGES[key] = image
    return image


def _unbounded() -> EncodingError:
    return EncodingError(
        f"cannot encode a payload that is larger than {MAX_WIRE_VALUES} "
        f"values or contains itself")


class FrameKind(Enum):
    """Frame types recognised by the link layer (§4.3.3 "message type")."""

    DATA = "data"
    ACK = "ack"             # end-to-end transport acknowledgement
    CONTROL = "control"     # watchdog pings, state queries, etc.


class Frame:
    """One transmission on the medium. Whether the recorders stored it
    is the medium's decision (:mod:`repro.net.media`), taken before any
    station is handed a copy, so a frame carries no mark of it.

    Frames are allocated per transmission attempt, so the class is
    slotted and building one encodes nothing: a frame built without a
    ``checksum`` carries its payload's CRC by definition, passes
    :meth:`checksum_ok` without a walk, and computes the CRC (once, into
    ``_payload_crc``) only when something reads it — :attr:`checksum`,
    :meth:`corrupt`, the DES wire codec, ``==`` or ``repr``. A frame
    given a ``checksum`` (the DES wire decode, a forged frame) or
    flipped by :meth:`corrupt` is checked by recomputation, and
    :meth:`corrupt` drops the cache, so the cache can never mask
    injected rot. The recomputation walks the ``Segment`` or control
    record the frame carries and splices in the image of a message inside
    it (:class:`WireImage`), which is the bytes of that very object: a
    frame given another message, however similar, reads another image or
    walks.
    """

    __slots__ = ("kind", "src_node", "dst_node", "payload", "size_bytes",
                 "frame_id", "_checksum", "_payload_crc")

    def __init__(self, kind: FrameKind, src_node: int, dst_node: int,
                 payload: Any, size_bytes: int,
                 frame_id: Optional[int] = None,
                 checksum: Optional[int] = None):
        if size_bytes <= 0:
            raise ConfigError(f"frame size must be positive, got {size_bytes}")
        self.kind = kind
        self.src_node = src_node
        self.dst_node = dst_node
        self.payload = payload
        self.size_bytes = size_bytes
        self.frame_id = (next(_frame_counter) if frame_id is None
                         else frame_id)
        #: None: the payload's CRC, by definition
        self._checksum = checksum
        self._payload_crc: Optional[int] = None

    @property
    def checksum(self) -> int:
        """The CRC this frame carries on the wire."""
        checksum = self._checksum
        return self.payload_crc() if checksum is None else checksum

    def payload_crc(self) -> int:
        """The CRC of the payload's canonical encoding, computed once."""
        crc = self._payload_crc
        if crc is None:
            # a frame carries a Segment, a control or a bare value: none
            # of them keeps an image for canonical_bytes to look up
            crc = self._payload_crc = crc16(_walk(self.payload, 0)[0])
        return crc

    def checksum_ok(self) -> bool:
        """Compare the payload's CRC with the checksum carried; only a
        frame whose checksum was given or corrupted has one to compare."""
        checksum = self._checksum
        return checksum is None or checksum == self.payload_crc()

    def corrupt(self) -> None:
        """Simulate bit rot: flip a checksum bit so validation fails."""
        self._checksum = self.checksum ^ 0x0001
        self._payload_crc = None

    def clone_for(self, dst_node: int) -> "Frame":
        """A copy of this frame addressed to ``dst_node`` (the fault
        plan's corrupted copy, the gateway's forwarded frame), carrying
        whatever of its checksum is computed so far."""
        clone = Frame(
            kind=self.kind,
            src_node=self.src_node,
            dst_node=dst_node,
            payload=self.payload,
            size_bytes=self.size_bytes,
            checksum=self._checksum,
        )
        clone._payload_crc = self._payload_crc
        return clone

    def _fields(self):
        return (self.kind, self.src_node, self.dst_node, self.payload,
                self.size_bytes, self.frame_id, self.checksum)

    def __eq__(self, other):
        if other.__class__ is not Frame:
            return NotImplemented
        return self._fields() == other._fields()
