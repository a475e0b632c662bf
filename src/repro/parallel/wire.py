"""Compact wire format for routed frames (the pooled DES hot path).

Every window barrier, each pool worker ships the frames its gateway
taps claimed to the parent, and the parent routes them back out to the
destination workers — so frame (de)serialization sits directly on the
barrier critical path. Naively ``pickle``-ing the routed tuples pays
per-object protocol overhead for every frame: class dispatch, slot
state dicts, enum reduction, and per-tuple framing.

This codec flattens a whole batch instead:

* the numeric columns of every routed item — fire time, channel seq,
  destination LP, and the :class:`~repro.net.frames.Frame` shell
  (kind, src/dst node, size, frame id, checksum) — are
  packed as fixed-width ``struct`` records;
* channel keys are deduplicated into a small string table (a batch
  touches few distinct channels, so each key is encoded once);
* the arbitrary Python payloads are pickled **once**, as a single
  list, amortizing pickle's framing over the whole batch.

Decoding rebuilds byte-identical frames: ``frame_id`` and ``checksum``
are carried verbatim (never re-derived), so digests and checksum
validation behave exactly as if the object had crossed by reference.
The payload-CRC cache is deliberately not shipped — it is recomputed
lazily on first use and can never change an observable value.

``benchmarks/test_micro_hotpaths.py`` pins the round trip and prints
the speedup over pickling the routed tuples wholesale (about 3x).
"""

from __future__ import annotations

import pickle
import struct
from typing import List, Tuple

from repro.errors import ReproError
from repro.net.frames import Frame, FrameKind

#: One routed item: (fire_time, channel key, channel seq, frame, dst LP).
RoutedFrame = Tuple[float, str, int, Frame, int]

_MAGIC = b"RBF1"
#: fire_time f64, key index u16, channel seq u32, dst LP i32,
#: kind u8, src_node i32, dst_node i32 (BROADCAST is -1),
#: size_bytes u32, frame_id u64, checksum u16
_RECORD = struct.Struct("<dHIiBiiIQH")
_HEAD = struct.Struct("<4sIH")
_KEYLEN = struct.Struct("<H")

_KINDS: Tuple[FrameKind, ...] = tuple(FrameKind)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}


def encode_frame_batch(items: List[RoutedFrame]) -> bytes:
    """Encode one barrier's routed frames as a flat byte string."""
    keys: List[str] = []
    key_index = {}
    records = bytearray()
    payloads = []
    pack = _RECORD.pack
    for fire_time, key, seq, frame, dst in items:
        index = key_index.get(key)
        if index is None:
            index = key_index[key] = len(keys)
            keys.append(key)
        records += pack(fire_time, index, seq, dst,
                        _KIND_CODE[frame.kind], frame.src_node,
                        frame.dst_node, frame.size_bytes, frame.frame_id,
                        frame.checksum)
        payloads.append(frame.payload)
    head = _HEAD.pack(_MAGIC, len(items), len(keys))
    table = bytearray()
    for key in keys:
        raw = key.encode("utf-8")
        table += _KEYLEN.pack(len(raw))
        table += raw
    blob = pickle.dumps(payloads, protocol=pickle.HIGHEST_PROTOCOL)
    return head + bytes(table) + bytes(records) + blob


def decode_frame_batch(data: bytes) -> List[RoutedFrame]:
    """Rebuild the routed items of :func:`encode_frame_batch`."""
    magic, count, key_count = _HEAD.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ReproError(f"bad frame-batch magic {magic!r}")
    offset = _HEAD.size
    keys: List[str] = []
    for _ in range(key_count):
        (length,) = _KEYLEN.unpack_from(data, offset)
        offset += _KEYLEN.size
        keys.append(data[offset:offset + length].decode("utf-8"))
        offset += length
    body = offset + count * _RECORD.size
    payloads = pickle.loads(data[body:])
    if len(payloads) != count:
        raise ReproError(
            f"frame batch carries {count} records but "
            f"{len(payloads)} payloads")
    items: List[RoutedFrame] = []
    append = items.append
    kinds = _KINDS
    for index, record in enumerate(_RECORD.iter_unpack(data[offset:body])):
        (fire_time, key_idx, seq, dst, kind, src_node, dst_node,
         size_bytes, frame_id, checksum) = record
        frame = Frame(kinds[kind], src_node, dst_node, payloads[index],
                      size_bytes, frame_id, checksum)
        append((fire_time, keys[key_idx], seq, frame, dst))
    return items
