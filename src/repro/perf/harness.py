"""The determinism gate: runs workloads, emits ``BENCH_publishing.json``.

Every fact in the report is a pure function of the seed, the mode and
the code — nothing here reads a clock — so the same command writes the
same bytes on every machine, and ``--compare`` is exact equality
against the committed file. Timing lives in ``bench/``
(``python3 bench/run.py``).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ReproError
from repro.perf.workloads import WORKLOADS

SCHEMA_VERSION = 1


def selected(only: Optional[Iterable[str]] = None) -> List[str]:
    """The workload names a selection means — all of them, in suite
    order, when it is empty. The one place a name is checked: the
    suite, the CLI and the ``perf`` rig's grid all select through it."""
    names = list(only) if only else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise ReproError(f"unknown workload(s): {', '.join(unknown)}\n"
                         f"available: {', '.join(WORKLOADS)}")
    return names


def run_workload(workload: str, seed: int, smoke: bool) -> Dict[str, Any]:
    """Run one workload; its facts, under its name, are the report entry
    (and, as the ``perf`` rig's ``run``, one shard's payload)."""
    return {"name": workload, **WORKLOADS[workload](seed, smoke)}


def run_suite(seed: int = 1983, smoke: bool = False,
              only: Optional[Iterable[str]] = None) -> Dict[str, Any]:
    """Run the selected workloads and assemble the full report."""
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "publishing",
        "meta": {"seed": seed, "mode": "smoke" if smoke else "full"},
        "workloads": [run_workload(name, seed, smoke)
                      for name in selected(only)],
    }


def _diff(path: str, committed: Any, current: Any, out: List[str]) -> None:
    """Append ``path: committed -> current`` for every differing leaf."""
    if isinstance(committed, dict) and isinstance(current, dict):
        for key in list(committed) + [k for k in current
                                      if k not in committed]:
            _diff(f"{path}.{key}", committed.get(key), current.get(key), out)
    elif (isinstance(committed, list) and isinstance(current, list)
          and len(committed) == len(current)):
        for index, (old, new) in enumerate(zip(committed, current)):
            _diff(f"{path}[{index}]", old, new, out)
    elif committed != current:
        out.append(f"{path}: {committed!r} -> {current!r}")


def compare_reports(current: Dict[str, Any],
                    committed: Dict[str, Any]) -> List[str]:
    """Exact comparison: one ``workload.key: committed -> current``
    line per differing fact, empty when the run reproduces the file.

    Workloads present only on one side are skipped — a ``--workload``
    selection compares what it ran, and adding a workload must not fail
    CI until its facts are committed.
    """
    failures: List[str] = []
    _diff("meta", committed.get("meta"), current.get("meta"), failures)
    by_name = {w["name"]: w for w in committed.get("workloads", [])}
    for work in current.get("workloads", []):
        base = by_name.get(work["name"])
        if base is not None:
            _diff(work["name"], base, work, failures)
    return failures


def format_report(report: Dict[str, Any]) -> str:
    """A terminal-friendly table of the report."""
    meta = report["meta"]
    lines = [f"repro perf — mode={meta['mode']} seed={meta['seed']}"]
    header = f"{'workload':<20} {'ops':>8} {'events':>8} {'sim_ms':>14}"
    lines.append(header)
    lines.append("-" * len(header))
    for work in report["workloads"]:
        lines.append(f"{work['name']:<20} {work['ops']:>8} "
                     f"{work['events']:>8} {work['sim_ms']:>14.3f}")
    return "\n".join(lines)


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def main(seed: int, smoke: bool, output: Optional[str],
         only: Optional[List[str]] = None,
         compare: Optional[str] = None) -> int:
    """CLI entry point shared by ``python -m repro perf``. Returns an
    exit code: 0 on success, 1 when a fact differs from the compare
    file, 2 for an unknown ``--workload`` name."""
    try:
        only = selected(only)
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2
    report = run_suite(seed=seed, smoke=smoke, only=only)
    print(format_report(report))
    if output:
        write_report(report, output)
        print(f"wrote {output}")
    if compare:
        with open(compare, "r", encoding="utf-8") as fh:
            committed = json.load(fh)
        failures = compare_reports(report, committed)
        if failures:
            print(f"determinism broken vs {compare} (committed -> current):",
                  file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(f"identical to {compare}")
    return 0
