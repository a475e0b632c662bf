"""Process-pool sharded execution of independent deterministic runs.

The evaluation sweeps — chaos seed matrices, queueing capacity and
utilization grids, the perf workloads — are embarrassingly parallel:
every shard is a pure function of its parameters (and, where it draws
randomness, of a seed derived from the sweep's root seed by *name*, via
:func:`repro.sim.rng.derive_seed`). This module schedules those shards
over a pool of worker processes and merges the results back in task
order, with a content digest per shard so serial and parallel execution
can be proven byte-identical.

Determinism contract:

* a shard's seed is ``derive_seed(root_seed, shard_name)`` — a function
  of the *name*, never of scheduling order or worker identity;
* shards never share mutable state (each builds its own ``System``);
* results are merged in submission order, regardless of completion
  order;
* a shard record is pure facts — nothing in it reads a clock — and
  carries ``digest``, SHA-256 over its canonical JSON (kind, name,
  params, payload); the merged report carries the digest chain, so
  ``run_tasks(tasks, max_workers=1)`` and ``run_tasks(tasks, N)`` must
  agree record for record.

Scheduling: tasks are grouped into chunks (default ~4 chunks per
worker) and the chunks are fed to a warm pool — each worker process is
created once and serves many chunks, so per-process startup cost is
paid ``max_workers`` times, not ``len(tasks)`` times.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.digest import digest_of, text_digest
from repro.errors import ReproError
from repro.sim.rng import derive_seed


def shard_seed(root_seed: int, name: str) -> int:
    """The master seed shard ``name`` uses in a sweep rooted at
    ``root_seed`` — ``derive_seed`` under a fixed ``sweep/`` prefix."""
    return derive_seed(root_seed, f"sweep/{name}")


@dataclass(frozen=True)
class ShardTask:
    """One unit of sweep work: a registered task kind plus parameters.

    ``name`` must be unique within a sweep — it orders the merge and
    (for seeded kinds) pins the shard's seed.
    """

    kind: str
    name: str
    #: sorted (key, value) pairs — hashable, picklable, order-stable
    params: Tuple[Tuple[str, Any], ...]


def make_task(kind: str, name: str, **params: Any) -> ShardTask:
    return ShardTask(kind=kind, name=name,
                     params=tuple(sorted(params.items())))


def _unencodable(obj: Any, path: str) -> str:
    """Key path of the value under ``obj`` that JSON cannot encode
    (``obj``'s own path when one of its keys is at fault)."""
    children = (obj.items() if isinstance(obj, dict)
                else enumerate(obj) if isinstance(obj, (list, tuple)) else ())
    for key, value in children:
        try:
            json.dumps(value)
        except TypeError:
            return _unencodable(value, f"{path}.{key}")
    return path


def execute_task(task: ShardTask) -> Dict[str, Any]:
    """Run one shard in the current process; returns the shard record
    (kind, name, params, payload, and the digest over those four)."""
    from repro.rigs import RIGS     # the table imports this module

    rig = RIGS.get(task.kind)
    if rig is None:
        raise ReproError(f"unknown shard kind {task.kind!r} "
                         f"(known: {', '.join(sorted(RIGS))})")
    params = dict(task.params)
    try:
        payload = rig.run(params)
    except KeyError as exc:     # most often a parameter the task lacks
        raise ReproError(f"shard {task.name!r}: the {task.kind} rig found "
                         f"no {exc} in or under {params}") from exc
    shard: Dict[str, Any] = {
        "kind": task.kind,
        "name": task.name,
        "params": params,
        "payload": payload,
    }
    try:
        shard["digest"] = digest_of(shard)
    except TypeError as exc:
        raise ReproError(
            f"shard {task.name!r}: {_unencodable(shard, 'shard')} is not "
            f"JSON-encodable, so the record has no digest ({exc})") from exc
    return shard


def _execute_chunk(chunk: List[Tuple[int, ShardTask]]
                   ) -> List[Tuple[int, Dict[str, Any]]]:
    """Worker entry point: run one chunk, keep the submission indices."""
    return [(index, execute_task(task)) for index, task in chunk]


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_tasks(tasks: Iterable[ShardTask],
              max_workers: Optional[int] = None,
              chunk_size: Optional[int] = None) -> List[Dict[str, Any]]:
    """Execute every task and return shard records in task order.

    ``max_workers=None`` defaults to ``os.cpu_count()``; 1 (or a single
    task) runs serially in-process — the reference execution the digest
    check compares against. Chunks default to ~4 per worker so warm
    workers get several servings and stragglers rebalance.
    """
    tasks = list(tasks)
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ReproError(f"shard names must be unique, repeated: {dupes}")
    if max_workers is not None and max_workers < 1:
        raise ReproError(f"max_workers must be >= 1, got {max_workers}")
    workers = min(max_workers or os.cpu_count() or 1, max(len(tasks), 1))
    if workers <= 1 or len(tasks) <= 1:
        return [execute_task(task) for task in tasks]

    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(tasks) / (workers * 4)))
    indexed = list(enumerate(tasks))
    chunks = [indexed[i:i + chunk_size]
              for i in range(0, len(indexed), chunk_size)]
    results: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=_mp_context()) as pool:
        futures = [pool.submit(_execute_chunk, chunk) for chunk in chunks]
        for future in as_completed(futures):
            for index, shard in future.result():
                results[index] = shard
    missing = [tasks[i].name for i, r in enumerate(results) if r is None]
    if missing:
        raise ReproError(f"shards never completed: {missing}")
    return results  # type: ignore[return-value]


def sweep_digest(shards: Sequence[Dict[str, Any]]) -> str:
    """Digest of the whole sweep: the ordered chain of shard digests."""
    joined = "\n".join(shard["digest"] for shard in shards)
    return text_digest(joined)


def merge_results(shards: Sequence[Dict[str, Any]],
                  **meta: Any) -> Dict[str, Any]:
    """The merged sweep report: a pure function of the shard records."""
    return {"count": len(shards), "digest": sweep_digest(shards),
            "shards": list(shards), **meta}


def verify_parallel(tasks: Sequence[ShardTask],
                    max_workers: Optional[int] = None,
                    chunk_size: Optional[int] = None
                    ) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Run ``tasks`` on the pool *and* serially; return the parallel
    shards plus a list of digest mismatches (empty == proven equal)."""
    parallel = run_tasks(tasks, max_workers=max_workers,
                         chunk_size=chunk_size)
    serial = run_tasks(tasks, max_workers=1)
    mismatches = [
        f"{p['name']}: parallel {p['digest'][:12]} != "
        f"serial {s['digest'][:12]}"
        for p, s in zip(parallel, serial) if p["digest"] != s["digest"]
    ]
    return parallel, mismatches
