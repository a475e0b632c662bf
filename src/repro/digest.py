"""The digest encodings, each spelled once.

Every committed digest (``BENCH_publishing.json``, a sweep's shard
records, the partitioned DES's per-cluster digests) is one of these
over some value; the byte layouts are frozen. The message checksum,
``repro.publishing.store.payload_digest``, lives with the store.
:func:`leaf_diff` is how a committed value is held against a fresh one,
and :func:`leaves` names a value's leaves the same way.
"""

from __future__ import annotations

import json
from typing import Any, List, Tuple

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


def leaves(value: Any, path: str = "") -> List[Tuple[str, Any]]:
    """``(path, leaf)`` for every leaf under ``value``, each named as
    :func:`leaf_diff` names it; an empty dict or list is a leaf."""
    if isinstance(value, dict) and value:
        return [leaf for key, child in value.items() for leaf in leaves(
            child, f"{path}.{key}" if path else str(key))]
    if isinstance(value, list) and value:
        return [leaf for index, child in enumerate(value)
                for leaf in leaves(child, f"{path}[{index}]")]
    return [(path, value)]


def leaf_diff(path: str, committed: Any, current: Any) -> List[str]:
    """``path: committed -> current`` for every leaf that differs, nested
    leaves named by their path (``a.b[2].c``); a key on one side only
    reads ``None`` on the other."""
    if isinstance(committed, dict) and isinstance(current, dict):
        keys = dict.fromkeys([*committed, *current])
        return [line for key in keys for line in leaf_diff(
            f"{path}.{key}", committed.get(key), current.get(key))]
    if (isinstance(committed, list) and isinstance(current, list)
            and len(committed) == len(current)):
        return [line for index, (old, new) in enumerate(zip(committed,
                                                             current))
                for line in leaf_diff(f"{path}[{index}]", old, new)]
    return [] if committed == current else [
        f"{path}: {committed!r} -> {current!r}"]
