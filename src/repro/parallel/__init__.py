"""repro.parallel — the two ways this repo uses more than one process.

:mod:`repro.parallel.runner` shards *independent* deterministic runs
(rigs of the table :data:`repro.rigs.RIGS`, which imports this package
and is looked up only when a task executes) over a process pool and
merges them deterministically: seeds derive from the root seed by
*name* via :func:`repro.sim.rng.derive_seed`, and every shard carries a
content digest so a parallel run can be proven byte-identical to serial
execution. See ``docs/PERFORMANCE.md``.

:mod:`repro.parallel.des` goes one step further: instead of sharding
*independent* runs, it partitions a *single* federation simulation into
one logical process per cluster group, synchronized through gateway
lookahead windows — conservative parallel DES, byte-identical to the
serial engine. See ``docs/PARALLEL_DES.md``.
"""

from repro.parallel.des import (
    DesScenario,
    cluster_digest,
    equivalence_report,
    federation_digest,
    run_pooled,
    run_serial,
)
from repro.parallel.runner import (
    ShardTask,
    execute_task,
    make_task,
    merge_results,
    run_tasks,
    shard_seed,
    sweep_digest,
    verify_parallel,
)

__all__ = [
    "DesScenario",
    "ShardTask",
    "cluster_digest",
    "equivalence_report",
    "federation_digest",
    "run_pooled",
    "run_serial",
    "execute_task",
    "make_task",
    "merge_results",
    "run_tasks",
    "shard_seed",
    "sweep_digest",
    "verify_parallel",
]
