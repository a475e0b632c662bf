"""The determinism gate is the rig table: ``python -m repro facts``
reproduces the committed ``BENCH_publishing.json`` exactly, keyed by
rig, each rig's facts its payload at its smoke parameters; comparison
is exact equality; and nothing in ``src/repro`` — bar
``parallel/des.py`` — or in tier-1 — bar one named hang guard — reads a
clock.
"""

import ast
import copy
import json
from pathlib import Path

import pytest

import repro
import repro.rigs as rigs
from repro.__main__ import main
from repro.digest import leaves
from repro.errors import ReproError
from repro.rigs import FACTS_SCHEMA, RIGS, compare_facts, facts_report

COMMITTED = Path(__file__).resolve().parents[1] / "BENCH_publishing.json"
FACT_RIGS = list(RIGS)


@pytest.fixture(scope="module")
def smoke_report():
    """Every rig's smoke-size facts, shared by every check that needs
    them."""
    return facts_report(seed=1983, smoke=True)


def test_smoke_run_reproduces_committed_baseline(smoke_report):
    """The determinism gate, on whichever interpreter runs tier-1 (CI:
    3.9, 3.11, 3.12, 3.13). Every digest is computed over the explicit wire
    encoding (``repro.net.frames.canonical_bytes``), not over ``repr``,
    so the committed facts must hold on each. On 3.9 ``Message`` is not
    slotted and the image it keeps of its own encoding lives in the
    instance dict (and rides along in a pickle); this test is what shows
    the bytes agree there."""
    committed = json.loads(COMMITTED.read_text())
    assert compare_facts(smoke_report, committed) == []
    assert list(smoke_report["rigs"]) == list(committed["rigs"])
    for name, facts in smoke_report["rigs"].items():
        assert facts == committed["rigs"][name], name


def test_report_schema(smoke_report):
    assert smoke_report["schema_version"] == FACTS_SCHEMA == 3
    assert smoke_report["meta"] == {"seed": 1983, "mode": "smoke"}
    assert list(smoke_report["rigs"]) == FACT_RIGS == [
        "capacity", "utilization", "figure57", "chaos", "gossip",
        "adversary", "des", "federation", "media", "pipeline", "store"]
    for name, facts in smoke_report["rigs"].items():
        assert facts["ok"] is True, name


def test_the_paper_numbers_are_facts(smoke_report):
    """§5.1's capacity at the mean point and Figure 5.7's per-message
    costs (EXPERIMENTS.md) are pinned by the gate, not only by
    ``benchmarks/``."""
    rigs = smoke_report["rigs"]
    mean = rigs["capacity"]["cells"]["capacity/mean/disks1"]
    assert (mean["users"], mean["bottleneck"]) == (114, "cpu")
    figure = rigs["figure57"]["cells"]
    assert [(round(figure[f"figure57/{label}"]["real_ms_per_iter"], 2),
             round(figure[f"figure57/{label}"]["kernel_cpu_ms_per_iter"], 2))
            for label in ("publishing", "bare")] == [(38.09, 35.01),
                                                     (10.06, 9.01)]


def test_facts_rigs_are_commands_but_not_sweep_kinds():
    from repro.__main__ import build_parser

    commands = build_parser([])._subparsers._group_actions[0].choices
    for name in ("media", "pipeline", "store"):
        assert name in commands and RIGS[name].grid is None
        with pytest.raises(SystemExit):
            build_parser(["sweep", "--kind", name]).parse_args(
                ["sweep", "--kind", name])


def test_report_is_json_serializable_and_round_trips(smoke_report):
    # equality with the in-memory report (not a re-serialised copy)
    # means every value is JSON-native, so compare_facts can diff a
    # live run against a loaded file
    assert json.loads(json.dumps(smoke_report, indent=2)) == smoke_report


def test_recorder_pipeline_phases_cover_the_recovery_recipe(smoke_report):
    pipeline = smoke_report["rigs"]["pipeline"]
    phases = pipeline["phases"]
    assert {"publish", "checkpoint", "publish_tail",
            "replay_recovery"} <= set(phases)
    assert phases["checkpoint"]["checkpoints"] > 0
    assert pipeline["messages_recorded"] > 0
    assert pipeline["recoveries"] > 0
    # the mid-stream checkpoint forces genuine replay, not just restore
    assert pipeline["messages_replayed"] > 0


def test_deterministic_figures_identical_across_runs(smoke_report):
    """A second run of the same seed serialises to the same bytes."""
    assert json.dumps(facts_report(seed=1983, smoke=True), indent=2) \
        == json.dumps(smoke_report, indent=2)


def test_different_seed_changes_the_workload():
    first = RIGS["media"](seed=1, **RIGS["media"].smoke)
    second = RIGS["media"](seed=2, **RIGS["media"].smoke)
    assert first["csma_ethernet"]["sim_ms"] != second["csma_ethernet"]["sim_ms"]


def test_smoke_mode_stays_under_simulated_ceiling(smoke_report):
    """Smoke mode exists for CI: every run must cover a bounded
    stretch of simulated time (the wall-clock follows from it)."""
    sim_ms = [(path, value) for path, value in leaves(smoke_report["rigs"])
              if path.endswith("sim_ms")]
    assert len(sim_ms) >= 10
    for path, value in sim_ms:
        assert 0 <= value <= 60_000, (
            f"{path} simulated {value}ms in smoke mode")


def test_unknown_rig_rejected():
    with pytest.raises(ReproError):
        facts_report(smoke=True, names=["no_such_rig"])


COMPARED = {
    "schema_version": 3,
    "meta": {"seed": 1983, "mode": "smoke"},
    "rigs": {
        "a": {"ops": 10, "events": 20, "sim_ms": 1.5,
              "event_digest": "abc", "grid": {"2": {"barriers": 4}}},
        "b": {"ops": 1, "events": 2, "sim_ms": 3.0,
              "frontier": [{"repaired": 3}, {"repaired": 8}]},
    },
}


def test_compare_facts_flags_only_real_regressions():
    committed = COMPARED
    current = copy.deepcopy(committed)
    assert compare_facts(current, committed) == []
    # one changed digest: exactly one failure, naming it both ways
    current["rigs"]["a"]["event_digest"] = "abd"
    assert compare_facts(current, committed) == [
        "a.event_digest: 'abc' -> 'abd'"]
    # nested facts are named by their path
    current = copy.deepcopy(committed)
    current["rigs"]["a"]["grid"]["2"]["barriers"] = 5
    current["rigs"]["b"]["frontier"][1]["repaired"] = 7
    assert compare_facts(current, committed) == [
        "a.grid.2.barriers: 4 -> 5", "b.frontier[1].repaired: 8 -> 7"]
    # a fact that vanished, or appeared, is a difference too
    current = copy.deepcopy(committed)
    del current["rigs"]["a"]["event_digest"]
    current["rigs"]["b"]["extra"] = 1
    assert compare_facts(current, committed) == [
        "a.event_digest: 'abc' -> None", "b.extra: None -> 1"]
    # a file of the old layout is no match for any run
    assert compare_facts(committed, {"schema_version": 1,
                                     "meta": committed["meta"]}) == [
        "schema_version: 1 -> 3", "a: not in the committed file",
        "b: not in the committed file"]


def test_compare_facts_fails_a_rig_on_one_side_only():
    """A full run must run exactly the committed rigs: one lost or one
    gained is a difference. A selection compares only what it ran."""
    committed = COMPARED
    ghost = copy.deepcopy(committed)
    ghost["rigs"]["ghost"] = {"ops": 1}
    assert compare_facts(committed, ghost) == [
        "ghost: committed, but not run"]
    lost = copy.deepcopy(committed)
    del lost["rigs"]["b"]
    assert compare_facts(committed, lost) == ["b: not in the committed file"]
    selected = copy.deepcopy(committed)
    del selected["rigs"]["b"]
    assert compare_facts(selected, committed, selected=True) == []
    assert compare_facts(selected, ghost, selected=True) == []
    assert compare_facts(committed, lost, selected=True) == [
        "b: not in the committed file"]


def test_cli_writes_report_and_gates_regressions(tmp_path, capsys):
    out = tmp_path / "current.json"
    base = tmp_path / "committed.json"
    argv = ["facts", "--smoke", "--seed", "7", "--rig", "media"]
    assert main(argv + ["--output", str(base)]) == 0
    assert main(argv + ["--output", str(out), "--compare", str(base)]) == 0
    assert out.read_bytes() == base.read_bytes()
    report = json.loads(out.read_text())
    assert list(report["rigs"]) == ["media"]
    # any one changed value fails the gate and is named
    twisted = json.loads(base.read_text())
    twisted["rigs"]["media"]["token_ring"]["collisions"] += 1
    base.write_text(json.dumps(twisted))
    capsys.readouterr()
    assert main(argv + ["--compare", str(base)]) == 1
    assert "media.token_ring.collisions: 1 -> 0" in capsys.readouterr().err


def test_cli_gate_fails_a_run_that_lost_or_gained_a_rig(tmp_path, capsys,
                                                        monkeypatch):
    """A committed file with an extra rig, or without one the run
    makes, or without one of a rig's parts, fails a full run."""
    monkeypatch.setattr(rigs, "RIGS", {
        "media": RIGS["media"],
        "tiny": rigs.Rig("tiny", "", (), run=lambda params: {"ops": 1})})
    base = tmp_path / "committed.json"
    assert main(["facts", "--smoke", "--output", str(base)]) == 0
    committed = json.loads(base.read_text())
    for name, edit in (("ghost", lambda f: f["rigs"].update(ghost={})),
                       ("lost", lambda f: f["rigs"].pop("tiny")),
                       ("csma", lambda f: f["rigs"]["media"].pop(
                           "csma_ethernet"))):
        broken = copy.deepcopy(committed)
        edit(broken)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(broken))
        capsys.readouterr()
        assert main(["facts", "--smoke", "--compare", str(path)]) == 1, name
        assert "identical" not in capsys.readouterr().out
    # a --rig selection compares only the rigs it ran
    assert main(["facts", "--smoke", "--rig", "media", "--compare",
                 str(tmp_path / "lost.json")]) == 0


class TestFactsCliRigSelection:
    def test_unknown_rig_exits_2_and_lists_available(self, capsys):
        assert main(["facts", "--smoke", "--rig", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown rig(s): nope" in err
        assert "available: " + ", ".join(FACT_RIGS) in err

    def test_rig_selection_skips_default_baseline_write(
            self, tmp_path, monkeypatch):
        """A report is written only where ``--output`` says."""
        monkeypatch.chdir(tmp_path)
        argv = ["facts", "--smoke", "--seed", "7", "--rig", "media"]
        assert main(argv) == 0
        assert list(tmp_path.iterdir()) == []
        assert main(argv + ["--output", "report.json"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


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
