"""Named, seeded random streams.

Determinism is load-bearing in this reproduction: process recovery works
because a re-executed process sees exactly the inputs it saw the first
time. To keep whole-simulation runs reproducible, every component draws
randomness from its own named stream derived from a master seed, so adding
a new consumer of randomness never perturbs the draws of existing ones.
"""

from __future__ import annotations

import random
from typing import Dict

# CPython's own sha256: hashlib would map OpenSSL's libcrypto (3.6 MiB
# resident). Builds without the built-in module fall back to hashlib.
try:
    from _sha2 import sha256                # 3.12+
except ImportError:
    try:
        from _sha256 import sha256          # 3.9-3.11
    except ImportError:
        from hashlib import sha256


def derive_seed(master_seed: int, name: str) -> int:
    """A stable 64-bit seed derived from ``(master_seed, name)``.

    This is the seed-derivation primitive for the whole reproduction:
    :class:`RngStreams` uses it for its named streams, and
    :mod:`repro.parallel` uses it to give every shard of a sweep its own
    seed as a pure function of the root seed and the shard's *name* —
    never of scheduling order — so results are identical whether shards
    run serially or spread over N worker processes.
    """
    digest = sha256(f"{master_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A factory of independent ``random.Random`` streams keyed by name."""

    def __init__(self, master_seed: int = 1983):
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream's seed is a stable hash of ``(master_seed, name)``, so
        the same name always yields the same sequence for a given master
        seed, independent of creation order.
        """
        if name not in self._streams:
            self._streams[name] = random.Random(
                derive_seed(self.master_seed, name))
        return self._streams[name]

    def exponential(self, name: str, mean: float) -> float:
        """One draw from an exponential distribution with the given mean."""
        return self.stream(name).expovariate(1.0 / mean)

    def uniform(self, name: str, lo: float, hi: float) -> float:
        """One draw from Uniform(lo, hi)."""
        return self.stream(name).uniform(lo, hi)

    def choice(self, name: str, seq):
        """One uniformly random element of ``seq``."""
        return self.stream(name).choice(seq)
