"""The ``repro.perf`` determinism gate.

Deterministic workload definitions (:mod:`repro.perf.workloads`) and the
report/compare machinery (:mod:`repro.perf.harness`) behind
``python -m repro perf``. A workload that is a rig at a point reaches
the table :data:`repro.rigs.RIGS` through ``workloads._gated`` only.
"""

from repro.perf.harness import (
    SCHEMA_VERSION,
    compare_reports,
    format_report,
    run_suite,
    run_workload,
    write_report,
)
from repro.perf.workloads import WORKLOADS, PerfDivergence

__all__ = [
    "SCHEMA_VERSION",
    "WORKLOADS",
    "PerfDivergence",
    "compare_reports",
    "format_report",
    "run_suite",
    "run_workload",
    "write_report",
]
