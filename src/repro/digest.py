"""The digest encodings, each spelled once.

Every committed digest (``BENCH_publishing.json``, a sweep's shard
records, the partitioned DES's per-cluster digests) is one of these
over some value; the byte layouts are frozen. The message checksum,
``repro.publishing.store.payload_digest``, lives with the store.
"""

from __future__ import annotations

import json
from typing import Any

from repro.sim.rng import sha256

_HASH_MOD = (1 << 61) - 1


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance. A value
    JSON cannot encode is a ``TypeError``, never stringified: a default
    ``repr`` would put a memory address into a determinism digest."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def text_digest(text: str) -> str:
    """SHA-256 hex digest of ``text``'s UTF-8 bytes."""
    return sha256(text.encode()).hexdigest()


def digest_of(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical JSON."""
    return text_digest(canonical_json(obj))


def fold(digest: int, value: int) -> int:
    """``digest`` (0 to start) with ``value`` folded in: an
    order-sensitive polynomial hash modulo a Mersenne prime."""
    return (digest * 1000003 + value) % _HASH_MOD
