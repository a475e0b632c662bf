"""Micro-benchmarks for the per-frame hot spots: the frame checksum
(checked against the bit-loop oracle), the frame CRC cache, the message
image (vs walking the message at every checksum), the capacity sweep's
model-reuse probe (vs rebuilding the model per probe), and the
pooled-DES compact wire format (vs pickling every routed frame).

The checksum must equal the oracle's byte for byte (``bench/probes.py``
is the only timer of that path) and the wire codec must give
byte-identical frames back. Every timing table is printed; none is
asserted on, because CI runs this file on three interpreters and a
clock must not decide a build. Where the two sides differ in the work
they do (a cached CRC, a reused model) the assert compares call counts
(``count_calls``); the codec's advantage over pickle is C time that no
call count shows, so its ratio (typically ~3x) is printed only.
"""

import pickle
import random
import time
from dataclasses import replace

from repro.demos.ids import MessageId, ProcessId
from repro.demos.links import Link
from repro.demos.messages import Message
from repro.net.frames import Frame, FrameKind, canonical_bytes, crc16
from repro.parallel.wire import decode_frame_batch, encode_frame_batch
from repro.publishing.store import payload_digest
from repro.queueing import OPERATING_POINTS, OpenQueueingModel, capacity_in_users

from _support import count_calls, crc16_bitwise
from conftest import once, print_table


def _payloads(count=400, lo=16, hi=512, seed=1983):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(rng.randrange(lo, hi)))
            for _ in range(count)]


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_crc16_matches_bitwise_oracle(benchmark):
    payloads = _payloads()

    def checksums():
        return [crc16(p) for p in payloads]

    assert checksums() == [crc16_bitwise(p) for p in payloads]
    once(benchmark, checksums)


def test_frame_checksum_cache(benchmark):
    """Re-validating a frame that was given its checksum (the DES wire
    decode, a forged frame) must not recompute the payload CRC. A frame
    built without one carries its payload's CRC by definition and is
    printed beside them: checking it computes nothing."""
    payloads = [("msg", i, "x" * 64) for i in range(500)]
    frames = [Frame(kind=FrameKind.DATA, src_node=1, dst_node=2,
                    payload=payload, size_bytes=128,
                    checksum=crc16(canonical_bytes(payload)))
              for payload in payloads]
    derived = [Frame(kind=FrameKind.DATA, src_node=1, dst_node=2,
                     payload=payload, size_bytes=128)
               for payload in payloads]

    def validate_warm():
        return sum(1 for f in frames if f.checksum_ok())

    def validate_cold():
        total = 0
        for f in frames:
            f._payload_crc = None
            total += 1 if f.checksum_ok() else 0
        return total

    def validate_derived():
        return sum(1 for f in derived if f.checksum_ok())

    assert validate_cold() == validate_warm() == len(frames)
    assert validate_derived() == len(derived)
    t_warm = _best_of(validate_warm)
    t_cold = _best_of(validate_cold)
    t_derived = _best_of(validate_derived)
    once(benchmark, validate_warm)
    print_table("Frame.checksum_ok: recompute vs cached vs derived CRC",
                ["variant", "ms / 500 frames", "speedup"],
                [["recompute", f"{t_cold * 1000:.3f}", "1.00x"],
                 ["cached", f"{t_warm * 1000:.3f}",
                  f"{t_cold / t_warm:.2f}x"],
                 ["derived", f"{t_derived * 1000:.3f}",
                  f"{t_cold / t_derived:.2f}x"]])
    assert count_calls(validate_warm) < count_calls(validate_cold)
    assert count_calls(validate_derived) <= count_calls(validate_warm)


def test_message_image_walked_once(benchmark):
    """A message whose body cannot change is encoded where its kernel
    sends it and read back at every later checksum: the recorder's
    digest, the verified replay read, a frame checked by recomputation. Times those reads against
    equal twins that carry no image yet and have to be walked; asserts
    only that both give the same bytes and digests."""
    pid = ProcessId(1, 1)
    warm = [Message(MessageId(pid, i), pid, ProcessId(2, 1), 0, 3,
                    ("add", i, "x" * 64), Link(pid, code=i))
            for i in range(500)]
    for m in warm:                      # the sender kernel's encode
        canonical_bytes(m)
    repeats = 5
    twins = [[replace(m) for m in warm] for _ in range(repeats + 2)]

    def digests(messages):
        return [payload_digest(m) for m in messages]

    assert digests(warm) == digests(twins.pop())
    assert ([canonical_bytes(m) for m in warm]
            == [canonical_bytes(m) for m in twins.pop()])
    t_walked = _best_of(lambda: digests(twins.pop()), repeats)
    t_image = _best_of(lambda: digests(warm), repeats)
    once(benchmark, digests, warm)
    print_table("payload_digest: kept image vs walking the message",
                ["variant", "ms / 500 messages", "speedup"],
                [["walked", f"{t_walked * 1000:.3f}", "1.00x"],
                 ["image", f"{t_image * 1000:.3f}",
                  f"{t_walked / t_image:.2f}x"]])


def _routed_batch(count=1000, seed=1983):
    """A barrier's worth of routed frames, shaped like real gateway
    traffic: a handful of distinct channels, small tuple payloads."""
    rng = random.Random(seed)
    items = []
    for i in range(count):
        frame = Frame(kind=FrameKind.DATA if i % 3 else FrameKind.ACK,
                      src_node=100 + rng.randrange(8),
                      dst_node=200 + rng.randrange(8),
                      payload=("add", i, i * i),
                      size_bytes=24 + rng.randrange(64))
        items.append((i * 0.37 + 5.0, f"gw{4000 + 4 * rng.randrange(12)}",
                      i, frame, rng.randrange(4)))
    return items


def test_wire_format_vs_pickle(benchmark):
    """The pooled-DES barrier codec: flat struct records + one payload
    pickle per batch, timed against pickling the routed tuples wholesale
    — one full object graph per frame, what crossed the worker pipes
    before the codec. Asserts the round trip and the blob size."""
    items = _routed_batch()
    blob = encode_frame_batch(items)
    pickled = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)

    def wire_roundtrip():
        return decode_frame_batch(encode_frame_batch(items))

    def pickle_roundtrip():
        return pickle.loads(
            pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL))

    decoded = wire_roundtrip()
    assert len(decoded) == len(items)
    for got, want in zip(decoded, items):
        assert got[:3] == want[:3] and got[4] == want[4]
        assert got[3]._fields() == want[3]._fields()   # byte-identical frame

    t_wire = _best_of(wire_roundtrip)
    t_pickle = _best_of(pickle_roundtrip)
    speedup = t_pickle / t_wire
    once(benchmark, wire_roundtrip)
    print_table("pooled-DES barrier codec: 1000-frame batch roundtrip",
                ["variant", "ms / batch", "bytes", "speedup"],
                [["pickle per frame graph", f"{t_pickle * 1000:.3f}",
                  str(len(pickled)), "1.00x"],
                 ["compact wire format", f"{t_wire * 1000:.3f}",
                  str(len(blob)), f"{speedup:.2f}x"]])
    assert len(blob) < len(pickled)


def test_capacity_sweep_model_reuse(benchmark):
    """The capacity bisection reuses one model per probe; it must do
    less work than (and agree exactly with) rebuilding the model for
    every probe."""

    def reuse_sweep():
        return [(name, capacity_in_users(p))
                for name, p in sorted(OPERATING_POINTS.items())]

    def rebuild_sweep():
        out = []
        for name, point in sorted(OPERATING_POINTS.items()):
            def stable(users):
                adjusted = replace(point, users_per_node=users)
                return OpenQueueingModel(point=adjusted, nodes=1).stable()

            lo, hi = 0, 1
            while hi < 2000 and stable(hi):
                lo, hi = hi, hi * 2
            while lo + 1 < hi:
                mid = (lo + hi) // 2
                if stable(mid):
                    lo = mid
                else:
                    hi = mid
            out.append((name, lo))
        return out

    assert reuse_sweep() == rebuild_sweep()
    t_reuse = _best_of(reuse_sweep)
    t_rebuild = _best_of(rebuild_sweep)
    rows = once(benchmark, reuse_sweep)
    print_table("capacity sweep: one reused model vs rebuild per probe",
                ["variant", "ms / 4-point sweep", "speedup"],
                [["rebuild per probe", f"{t_rebuild * 1000:.3f}", "1.00x"],
                 ["reused model", f"{t_reuse * 1000:.3f}",
                  f"{t_rebuild / t_reuse:.2f}x"]])
    assert dict(rows)["mean"] >= 110
    assert count_calls(reuse_sweep) < count_calls(rebuild_sweep)
