"""The ``repro.perf`` determinism gate.

Deterministic workload definitions (:mod:`repro.perf.workloads`) and the
report/compare machinery (:mod:`repro.perf.harness`) behind
``python -m repro perf``. :mod:`repro.perf.baseline` holds the
flat-list store reference that tests and ``benchmarks/`` diff against.
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
