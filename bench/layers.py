"""Bill a cProfile run to this repo's layers, from outside the program.

A function's self time goes to the layer its source file belongs to.
Builtins and the standard library (heapq, ``repr``, ``deepcopy``,
``str.encode``) have no layer of their own: their self time is billed
to whoever called them, through the profile's caller edges, and what
cannot be traced to a layer ends up in ``other``.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional, Tuple

Func = Tuple[str, int, str]

#: source path fragment -> layer; first match wins
_PATHS: Tuple[Tuple[str, str], ...] = (
    ("repro/sim/", "sim"),
    ("repro/net/frames.py", "net.frames"),
    ("repro/net/transport.py", "net.transport"),
    ("repro/net/faults.py", "net.faults"),
    ("repro/net/", "net.media"),
    ("repro/demos/", "demos"),
    ("repro/publishing/recorder", "publishing.recorder"),
    ("repro/publishing/multi_recorder.py", "publishing.recorder"),
    ("repro/publishing/store.py", "publishing.store"),
    ("repro/publishing/database.py", "publishing.store"),
    ("repro/publishing/disk.py", "publishing.store"),
    ("repro/publishing/stable_storage.py", "publishing.store"),
    ("repro/publishing/gossip.py", "publishing.gossip"),
    ("repro/publishing/", "publishing.recovery"),
    ("repro/obs/", "obs"),
    ("repro/metrics/", "obs"),
    ("repro/cluster/", "cluster"),
    ("repro/parallel/", "parallel"),
    ("repro/system.py", "system"),
    ("repro/", "other"),
)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

LAYERS: Tuple[str, ...] = (
    "sim", "net.frames", "net.media", "net.transport", "net.faults",
    "demos", "publishing.recorder", "publishing.store",
    "publishing.recovery", "publishing.gossip", "obs", "cluster",
    "parallel", "system", "bench", "other")


def layer_of(filename: str) -> Optional[str]:
    """The layer owning ``filename``; None for builtins and stdlib."""
    path = filename.replace(os.sep, "/")
    for fragment, layer in _PATHS:
        if fragment in path:
            return layer
    if os.path.abspath(filename).startswith(_BENCH_DIR):
        return "bench"
    return None


def self_seconds(stats: pstats.Stats) -> Dict[str, float]:
    """Self time per layer; the values sum to the profile's total."""
    table: Dict[Func, tuple] = stats.stats     # type: ignore[attr-defined]
    owner = {func: layer_of(func[0]) for func in table}
    # share[f] = how an unowned function's self time splits over
    # layers: the edge-weighted mix of its callers' shares, solved by
    # iteration because unowned functions call each other (deepcopy
    # recursion) before reaching an owned caller.
    share: Dict[Func, Dict[str, float]] = {
        func: {} for func, layer in owner.items() if layer is None}
    for _ in range(32):
        for func in share:
            callers = table[func][4]
            weight = sum(edge[2] for edge in callers.values())
            mix: Dict[str, float] = {}
            for caller, edge in callers.items():
                part = edge[2] / weight if weight > 0 else 0.0
                layer = owner.get(caller)
                if layer is not None:
                    mix[layer] = mix.get(layer, 0.0) + part
                else:
                    for name, value in share.get(caller, {}).items():
                        mix[name] = mix.get(name, 0.0) + part * value
            share[func] = mix
    billed = dict.fromkeys(LAYERS, 0.0)
    for func, (_, _, self_time, _, _) in table.items():
        layer = owner[func]
        if layer is not None:
            billed[layer] += self_time
            continue
        mix = share[func]
        for name, value in mix.items():
            billed[name] += self_time * value
        billed["other"] += self_time * max(0.0, 1.0 - sum(mix.values()))
    return billed
