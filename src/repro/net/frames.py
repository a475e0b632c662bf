"""Frames, the wire encoding, and checksums.

The DEMOS/MP link layer "wraps all messages with a rotating checksum and
checks the message type for validity. Any messages with an incorrect
checksum are discarded" (§4.3.3). We model that literally: every frame
carries a CRC computed over a canonical encoding of its payload, and the
receiving link layer recomputes and compares it. Fault injection corrupts
the stored CRC, which is indistinguishable from bit rot on the wire.

A checksum only helps if two processes compute the same value from the
same payload, so the encoding is explicit: :func:`canonical_bytes` walks
a closed set of types (the builtin values plus the payload classes their
owning modules register with :func:`register_payload`) and raises
:class:`~repro.errors.EncodingError` for anything else. It never looks
at ``repr``, ``hash`` or an address. The recorder's per-record checksum
(:func:`repro.publishing.store.payload_digest`) is computed over the
same encoding.

The CRC runs on every frame send *and* every receive, so it runs in C:
:func:`crc16` is ``binascii.crc_hqx`` (CRC-16/CCITT, initial value
``0xFFFF``). ``tests/fixtures.py`` keeps the bit-at-a-time loop as the
oracle and ``tests/test_net_frames.py`` pins the two to identical
outputs.
"""

from __future__ import annotations

import dataclasses
import itertools
from binascii import crc_hqx
from enum import Enum
from operator import attrgetter, itemgetter
from struct import pack
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.errors import EncodingError

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
#: payload class -> (header bytes, field getter or None for a NamedTuple,
#: which is iterated directly)
_PAYLOAD_CLASSES: Dict[type, Tuple[bytes, Optional[Callable]]] = {}
_FIRST = itemgetter(0)
#: node ids, channels, codes and most sequence numbers: nine ints in ten
#: on the wire are below 256, and a lookup is half the cost of a format
_SMALL_INTS = tuple(b"i%d;" % n for n in range(256))


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
    """
    if not (tag.isascii() and tag.isidentifier()):
        raise ValueError(f"payload tag must be an ASCII identifier: {tag!r}")
    header = b"@%b;" % tag.encode("ascii")

    def register(cls: type) -> type:
        if any(header == taken for taken, _ in _PAYLOAD_CLASSES.values()):
            raise ValueError(f"payload tag {tag!r} is already registered")
        if dataclasses.is_dataclass(cls):
            names = [f.name for f in dataclasses.fields(cls)]
            fields = attrgetter(*names)
            if len(names) == 1:
                only = fields           # one name: attrgetter returns no tuple

                def fields(value):
                    return (only(value),)
        elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
            fields = None
        else:
            raise TypeError(f"{cls.__qualname__} is neither a dataclass "
                            f"nor a NamedTuple")
        _PAYLOAD_CLASSES[cls] = (header, fields)
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
    Anything else raises :class:`~repro.errors.EncodingError`. Payloads
    are trees: a container that contains itself has no encoding and
    must not be sent.

    Layout: a scalar is a tag and a terminated number or a
    length-prefixed run. A container writes its header (tag and member
    count, or ``@tag;`` for a payload class, whose count is fixed) where
    it stands and its members after everything already waiting, so the
    whole encoder is this one loop — no recursion, no call per value.
    Every piece is self-delimiting and the order is fixed by the
    headers, so equal bytes mean equal values of equal types.
    """
    classes = _PAYLOAD_CLASSES
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
            header, fields = classes[kind]
            out += header
            queue += value if fields is None else fields(value)
        elif value is None:
            out += b"N"
        elif kind is tuple:
            out += b"(%d:" % len(value)
            queue += value
        elif kind is dict:
            # keys whole and in place, in encoded order; values wait
            out += b"{%d:" % len(value)
            for key, item in sorted(zip(map(canonical_bytes, value),
                                        value.values()), key=_FIRST):
                out += key
                queue.append(item)
        elif kind is list:
            out += b"[%d:" % len(value)
            queue += value
        elif kind is float:
            out += b"f"
            out += pack(">d", value)
        elif kind is bytes:
            out += b"b%d:" % len(value)
            out += value
        elif kind is set or kind is frozenset:
            out += (b"<%d:" if kind is set else b"#%d:") % len(value)
            for member in sorted(map(canonical_bytes, value)):
                out += member
        else:
            raise EncodingError(
                f"cannot encode {kind.__module__}.{kind.__qualname__} for "
                f"the wire: send builtin values or a class registered "
                f"with repro.net.frames.register_payload")
    return bytes(out)


class FrameKind(Enum):
    """Frame types recognised by the link layer (§4.3.3 "message type")."""

    DATA = "data"
    ACK = "ack"             # end-to-end transport acknowledgement
    RECORDER_ACK = "recorder_ack"  # medium-level recorder acknowledgement
    CONTROL = "control"     # watchdog pings, state queries, etc.


class Frame:
    """One transmission on the medium.

    ``recorder_acked`` is set by the medium when the recorder successfully
    stored the frame; link layers at receivers that require publishing drop
    data frames without it (§6.1).

    Frames are allocated per transmission attempt and checksummed at both
    ends, so the class is slotted and the payload's canonical encoding /
    CRC is computed once and cached (``_payload_crc``). The cache belongs
    to the *payload*, not the stored ``checksum``: :meth:`corrupt` models
    bit rot by flipping the stored checksum **and** drops the cache, so a
    corrupted frame always fails :meth:`checksum_ok` by recomputation —
    the cache can never mask injected rot.
    """

    __slots__ = ("kind", "src_node", "dst_node", "payload", "size_bytes",
                 "frame_id", "checksum", "recorder_acked", "_payload_crc")

    def __init__(self, kind: FrameKind, src_node: int, dst_node: int,
                 payload: Any, size_bytes: int,
                 frame_id: Optional[int] = None,
                 checksum: Optional[int] = None,
                 recorder_acked: bool = False):
        if size_bytes <= 0:
            raise ValueError(f"frame size must be positive, got {size_bytes}")
        self.kind = kind
        self.src_node = src_node
        self.dst_node = dst_node
        self.payload = payload
        self.size_bytes = size_bytes
        self.frame_id = (next(_frame_counter) if frame_id is None
                         else frame_id)
        self.recorder_acked = recorder_acked
        self._payload_crc: Optional[int] = None
        if checksum is None:
            checksum = self.payload_crc()
        self.checksum = checksum

    def payload_crc(self) -> int:
        """The CRC of the payload's canonical encoding, computed once."""
        crc = self._payload_crc
        if crc is None:
            crc = self._payload_crc = crc16(canonical_bytes(self.payload))
        return crc

    def checksum_ok(self) -> bool:
        """Compare the payload's CRC with the stored one."""
        return self.checksum == self.payload_crc()

    def corrupt(self) -> None:
        """Simulate bit rot: flip a checksum bit so validation fails."""
        self.checksum ^= 0x0001
        self._payload_crc = None

    def clone_for(self, dst_node: int) -> "Frame":
        """A copy of this frame addressed to ``dst_node`` (hub forwarding)."""
        clone = Frame(
            kind=self.kind,
            src_node=self.src_node,
            dst_node=dst_node,
            payload=self.payload,
            size_bytes=self.size_bytes,
            checksum=self.checksum,
            recorder_acked=self.recorder_acked,
        )
        clone._payload_crc = self._payload_crc
        return clone

    def _fields(self):
        return (self.kind, self.src_node, self.dst_node, self.payload,
                self.size_bytes, self.frame_id, self.checksum,
                self.recorder_acked)

    def __eq__(self, other):
        if other.__class__ is not Frame:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (f"Frame(kind={self.kind!r}, src_node={self.src_node!r}, "
                f"dst_node={self.dst_node!r}, payload={self.payload!r}, "
                f"size_bytes={self.size_bytes!r}, "
                f"frame_id={self.frame_id!r}, checksum={self.checksum!r}, "
                f"recorder_acked={self.recorder_acked!r})")
