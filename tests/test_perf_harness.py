"""The perf harness is a determinism gate: its report reproduces the
committed ``BENCH_publishing.json`` exactly, comparison is exact
equality, and nothing in ``src/repro`` — bar ``parallel/des.py`` — or
in tier-1 — bar one named hang guard — reads a clock.
"""

import ast
import copy
import json
from pathlib import Path

import pytest

import repro
from repro.errors import ReproError
from repro.perf import (
    WORKLOADS,
    compare_reports,
    format_report,
    run_suite,
    run_workload,
    write_report,
)

#: the cheap workloads used where the test only needs *some* report
FAST = ["engine_churn", "storm_token_ring"]

COMMITTED = Path(__file__).resolve().parents[1] / "BENCH_publishing.json"


@pytest.fixture(scope="module")
def smoke_report():
    """One full smoke-mode suite, shared by every check that needs it."""
    return run_suite(seed=1983, smoke=True)


def test_smoke_run_reproduces_committed_baseline(smoke_report):
    """The determinism gate, on whichever interpreter runs tier-1 (CI:
    3.9, 3.11, 3.12). Every digest is computed over the explicit wire
    encoding (``repro.net.frames.canonical_bytes``), not over ``repr``,
    so the committed facts must hold on each. On 3.9 ``Message`` is not
    slotted and the image it keeps of its own encoding lives in the
    instance dict (and rides along in a pickle); this test is what shows
    the bytes agree there."""
    committed = json.loads(COMMITTED.read_text())
    assert smoke_report["meta"] == committed["meta"]
    assert ([w["name"] for w in smoke_report["workloads"]]
            == [w["name"] for w in committed["workloads"]])
    for work, base in zip(smoke_report["workloads"], committed["workloads"]):
        assert work == base, work["name"]


def test_report_schema(smoke_report):
    assert smoke_report["schema_version"] == 1
    assert smoke_report["benchmark"] == "publishing"
    assert smoke_report["meta"] == {"seed": 1983, "mode": "smoke"}
    workloads = smoke_report["workloads"]
    assert [w["name"] for w in workloads] == list(WORKLOADS)
    for work in workloads:
        assert work["ops"] > 0
        assert work["events"] > 0
        assert work["sim_ms"] > 0


def test_report_is_json_serializable_and_round_trips(smoke_report, tmp_path):
    path = tmp_path / "BENCH_publishing.json"
    write_report(smoke_report, str(path))
    # equality with the in-memory report (not a re-serialised copy)
    # means every value is JSON-native, so compare_reports can diff a
    # live run against a loaded file
    assert json.loads(path.read_text()) == smoke_report


def test_recorder_pipeline_phases_cover_the_recovery_recipe(smoke_report):
    pipeline = next(w for w in smoke_report["workloads"]
                    if w["name"] == "recorder_pipeline")
    phases = pipeline["phases"]
    assert {"publish", "checkpoint", "publish_tail",
            "replay_recovery"} <= set(phases)
    assert phases["checkpoint"]["checkpoints"] > 0
    assert pipeline["messages_recorded"] > 0
    assert pipeline["recoveries"] > 0
    # the mid-stream checkpoint forces genuine replay, not just restore
    assert pipeline["messages_replayed"] > 0


def test_deterministic_figures_identical_across_runs(smoke_report, tmp_path):
    """A second run of the same seed serialises to the same bytes."""
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    write_report(smoke_report, str(first))
    write_report(run_suite(seed=1983, smoke=True), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_different_seed_changes_the_workload():
    first = run_workload("engine_churn", seed=1, smoke=True)
    second = run_workload("engine_churn", seed=2, smoke=True)
    assert first["event_digest"] != second["event_digest"]


def test_smoke_mode_stays_under_simulated_ceiling(smoke_report):
    """Smoke mode exists for CI: every workload must cover a bounded
    stretch of simulated time (the wall-clock follows from it)."""
    for work in smoke_report["workloads"]:
        assert work["sim_ms"] <= 60_000, (
            f"{work['name']} simulated {work['sim_ms']}ms in smoke mode")


def test_unknown_workload_rejected():
    with pytest.raises(ReproError):
        run_suite(smoke=True, only=["no_such_workload"])


def test_compare_reports_flags_only_real_regressions():
    committed = {
        "meta": {"seed": 1983, "mode": "smoke"},
        "workloads": [
            {"name": "a", "ops": 10, "events": 20, "sim_ms": 1.5,
             "event_digest": "abc", "grid": {"2": {"barriers": 4}}},
            {"name": "b", "ops": 1, "events": 2, "sim_ms": 3.0,
             "frontier": [{"repaired": 3}, {"repaired": 8}]},
        ],
    }
    current = copy.deepcopy(committed)
    assert compare_reports(current, committed) == []
    # one changed digest: exactly one failure, naming it both ways
    current["workloads"][0]["event_digest"] = "abd"
    assert compare_reports(current, committed) == [
        "a.event_digest: 'abc' -> 'abd'"]
    # nested facts are named by their path
    current = copy.deepcopy(committed)
    current["workloads"][0]["grid"]["2"]["barriers"] = 5
    current["workloads"][1]["frontier"][1]["repaired"] = 7
    assert compare_reports(current, committed) == [
        "a.grid.2.barriers: 4 -> 5", "b.frontier[1].repaired: 8 -> 7"]
    # a fact that vanished, or appeared, is a difference too
    current = copy.deepcopy(committed)
    del current["workloads"][0]["event_digest"]
    current["workloads"][1]["extra"] = 1
    assert compare_reports(current, committed) == [
        "a.event_digest: 'abc' -> None", "b.extra: None -> 1"]
    # a workload on one side only is skipped, not failed
    current = copy.deepcopy(committed)
    current["workloads"].append(dict(committed["workloads"][0],
                                     name="brand_new"))
    del current["workloads"][1]
    assert compare_reports(current, committed) == []


def test_format_report_lists_every_workload(smoke_report):
    text = format_report(smoke_report)
    for work in smoke_report["workloads"]:
        assert work["name"] in text


def test_cli_writes_report_and_gates_regressions(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "current.json"
    base = tmp_path / "committed.json"
    argv = ["perf", "--smoke", "--seed", "7",
            "--workload", "engine_churn", "--workload", "storm_token_ring"]
    assert main(argv + ["--output", str(base)]) == 0
    assert main(argv + ["--output", str(out), "--compare", str(base)]) == 0
    assert out.read_bytes() == base.read_bytes()
    report = json.loads(out.read_text())
    assert [w["name"] for w in report["workloads"]] == FAST
    # any one changed value fails the gate and is named
    twisted = json.loads(base.read_text())
    twisted["workloads"][1]["collisions"] += 1
    base.write_text(json.dumps(twisted))
    capsys.readouterr()
    assert main(argv + ["--compare", str(base)]) == 1
    assert "storm_token_ring.collisions: 1 -> 0" in capsys.readouterr().err


#: the one module of ``src/repro`` that may read a clock, and why
SRC_CLOCK_ALLOWED = {
    "parallel/des.py":
        "run_serial / run_pooled return wall_ms, which bench/probes.py "
        "reads to time pooled against serial, and the pool master's "
        "reply/join timeouts are wall-clock deadlines; neither reaches "
        "a digest or a report",
}

#: the one place tier-1 may read a clock, and why
CLOCK_ALLOWED = {
    ("test_des_equivalence.py", "TestPoolRobustness"):
        "hang guard: a failed pool worker must surface before "
        "POOL_JOIN_TIMEOUT_S by time.monotonic; no result depends on "
        "the reading",
}


def clock_imports(tree):
    """``(lineno, names)`` of every import of a clock module, at module
    level or inside a function."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported = [node.module or ""]
        else:
            continue
        clocks = [name for name in imported
                  if name.split(".")[0] in ("time", "datetime")]
        if clocks:
            found.append((node.lineno, clocks))
    return found


def clock_reads(tree):
    """Every use of the name ``time`` or ``datetime``."""
    return {node for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and node.id in ("time", "datetime")}


def test_perf_package_reads_no_clock():
    """No module of ``src/repro`` imports a clock, at module level or
    inside a function, except the ones ``SRC_CLOCK_ALLOWED`` names —
    and neither does tier-1 itself: no module under ``tests/`` does,
    except inside the classes ``CLOCK_ALLOWED`` names."""
    package = Path(repro.__file__).parent
    sources = []
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package).as_posix() in SRC_CLOCK_ALLOWED:
            assert clock_imports(ast.parse(path.read_text())), (
                f"{path.name}: the allow-list entry is unused")
        else:
            sources.append(path)
    assert len(sources) > 50 and all(SRC_CLOCK_ALLOWED.values())
    assert list(SRC_CLOCK_ALLOWED) == ["parallel/des.py"]
    sources += sorted(Path(__file__).parent.glob("*.py"))
    allowed_in = {}
    for (module, cls), reason in CLOCK_ALLOWED.items():
        assert reason
        allowed_in.setdefault(module, set()).add(cls)
    assert len(CLOCK_ALLOWED) == 1
    for path in sources:
        tree = ast.parse(path.read_text())
        if path.name not in allowed_in:
            found = clock_imports(tree)
            assert not found, f"{path.name} imports a clock: {found}"
            continue
        inside = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef)
                    and node.name in allowed_in[path.name]):
                inside |= clock_reads(node)
        assert inside, f"{path.name}: the allow-list entry is unused"
        stray = sorted(n.lineno for n in clock_reads(tree) - inside)
        assert not stray, f"{path.name} reads a clock at lines {stray}"
