"""repro.parallel — multi-core sharding of independent deterministic runs.

Shard an evaluation sweep (chaos seed matrices, queueing capacity /
utilization / Figure 5.7 grids, perf workloads) over a process pool
and merge the results deterministically: per-shard seeds are derived
from the root seed by *name* via :func:`repro.sim.rng.derive_seed`, and
every shard carries a content digest so a parallel run can be proven
byte-identical to serial execution. See ``docs/PERFORMANCE.md``.

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
    canonical_json,
    digest_of,
    execute_task,
    make_task,
    merge_results,
    resolve_workers,
    run_tasks,
    shard_seed,
    strip_timing,
    sweep_digest,
    verify_parallel,
)
from repro.parallel.sweeps import (
    SWEEP_BUILDERS,
    capacity_tasks,
    chaos_matrix_tasks,
    federation_tasks,
    figure57_tasks,
    perf_tasks,
    run_sweep,
    utilization_tasks,
)
from repro.parallel.tasks import TASK_KINDS

__all__ = [
    "DesScenario",
    "SWEEP_BUILDERS",
    "ShardTask",
    "TASK_KINDS",
    "canonical_json",
    "capacity_tasks",
    "chaos_matrix_tasks",
    "cluster_digest",
    "digest_of",
    "equivalence_report",
    "federation_digest",
    "federation_tasks",
    "run_pooled",
    "run_serial",
    "execute_task",
    "figure57_tasks",
    "make_task",
    "merge_results",
    "perf_tasks",
    "resolve_workers",
    "run_sweep",
    "run_tasks",
    "shard_seed",
    "strip_timing",
    "sweep_digest",
    "utilization_tasks",
    "verify_parallel",
]
