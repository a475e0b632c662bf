"""repro.parallel — multi-core sharding of independent deterministic runs.

:mod:`repro.parallel.rigs` declares every acceptance rig once; shard a
rig's grid (chaos seed matrices, queueing and Figure 5.7 grids, perf
workloads) over a process pool and merge deterministically: seeds derive
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
from repro.parallel.rigs import (
    RIGS,
    capacity_tasks,
    chaos_matrix_tasks,
    figure57_tasks,
    perf_tasks,
    run_sweep,
    utilization_tasks,
)
from repro.parallel.runner import (
    ShardTask,
    canonical_json,
    digest_of,
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
    "RIGS",
    "ShardTask",
    "canonical_json",
    "capacity_tasks",
    "chaos_matrix_tasks",
    "cluster_digest",
    "digest_of",
    "equivalence_report",
    "federation_digest",
    "run_pooled",
    "run_serial",
    "execute_task",
    "figure57_tasks",
    "make_task",
    "merge_results",
    "perf_tasks",
    "run_sweep",
    "run_tasks",
    "shard_seed",
    "sweep_digest",
    "utilization_tasks",
    "verify_parallel",
]
