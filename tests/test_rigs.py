"""The rig table and its drivers (docs/PERFORMANCE.md, "Rigs").

Every acceptance rig is declared once in ``repro.rigs.RIGS``;
the CLI, the sweep runner, the determinism gate and CI are drivers over
that table. These tests are parametrised over it, so a new rig is
covered by adding its entry: its subcommand at its smoke flags must
print exactly its committed facts, its sweep cell must pass in-process
on every interpreter, its flags must be exactly its declaration, and
every command line the docs show must parse.
"""

import copy
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro.parallel.des as des
from repro.__main__ import build_parser, main
from repro.digest import leaf_diff, leaves
from repro.errors import ReproError
from repro.parallel import execute_task, make_task
from repro.rigs import RIGS, Rig, ci_commands

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = json.loads((ROOT / "BENCH_publishing.json").read_text())
GRID_RIGS = sorted(name for name, rig in RIGS.items() if rig.grid)
CLI_RIGS = sorted(RIGS)
CI_CELLS = ci_commands()
SMOKE_CELLS = [(name, argv) for name, argv in CI_CELLS if argv[0] != "sweep"]
SWEEP_CELLS = [(name, argv) for name, argv in CI_CELLS if argv[0] == "sweep"]


def parse(argv):
    return build_parser(argv).parse_args(argv)


def subparser(argv):
    """The parser ``argv``'s subcommand resolves to."""
    actions = build_parser(argv)._subparsers._group_actions
    return actions[0].choices[argv[0]]


def flags_of(parser):
    return {flag for action in parser._actions
            for flag in action.option_strings} - {"-h", "--help"}


def declared_flags(rig, face):
    return {p.option for p in rig.params if p.on in ("both", face)}


# ----------------------------------------------------------------------
# every rig at its smoke parameters, every grid at its CI parameters
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,argv", SMOKE_CELLS,
                         ids=[name for name, _ in SMOKE_CELLS])
def test_smoke_cell_prints_the_committed_facts(name, argv, tmp_path,
                                               capsys):
    """What a user runs is what the gate pins: the subcommand at the
    rig's smoke flags prints, as JSON, exactly the rig's leaves in
    ``BENCH_publishing.json``, and passes."""
    out = tmp_path / f"{name}_report.json"
    assert main(argv + ["--json", "--output", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text()) == report
    assert report == COMMITTED["rigs"][name]
    assert report["ok"] is True


def test_a_moved_payload_leaf_fails_the_smoke_cell(monkeypatch, capsys):
    """The comparison above is over every leaf: one changed payload
    value, deep in the report, no longer equals the committed facts."""
    rig = RIGS["gossip"]

    def moved(params):
        payload = copy.deepcopy(rig.run(params))
        payload["frontier"][2]["repaired"] += 1
        return payload

    monkeypatch.setitem(RIGS, "gossip", dataclasses.replace(rig, run=moved))
    argv = dict(SMOKE_CELLS)["gossip"]
    assert main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report != COMMITTED["rigs"]["gossip"]
    assert leaf_diff("gossip", COMMITTED["rigs"]["gossip"], report) == [
        "gossip.frontier[2].repaired: 3 -> 4"]


@pytest.mark.parametrize("name,argv", SWEEP_CELLS,
                         ids=[name for name, _ in SWEEP_CELLS])
def test_sweep_cell_passes(name, argv, tmp_path, capsys):
    out = tmp_path / f"{name}_report.json"
    assert main(argv + ["--json", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == report
    assert report["ok"] is True
    assert report["serial_check"]["matches"]
    assert report["serial_check"]["serial_digest"] == report["digest"]


def test_ci_cells_cover_every_rig_and_every_grid():
    names = [name for name, _ in CI_CELLS]
    assert len(names) == len(set(names))
    assert set(names) == (set(CLI_RIGS)
                          | {f"sweep_{name}" for name in GRID_RIGS})


def test_every_rig_is_one_scenario_with_no_per_rig_printer():
    """A rig is its parameters, one ``run`` and the overrides the gate
    pins; no printer, verdict or second scenario rides beside them."""
    assert [f.name for f in dataclasses.fields(Rig)] == [
        "name", "help", "params", "run", "smoke", "grid", "table",
        "ci_grid"]
    for rig in RIGS.values():
        names = [p.name for p in rig.params]
        assert set(rig.smoke) <= set(names), rig.name


def test_the_table_declares_no_more_parameters():
    """Aim 2's knob count for the rigs: a new parameter replaces one."""
    assert sum(len(rig.params) for rig in RIGS.values()) <= 43


def test_monkey_chaos_report_has_the_shard_payload_shape(capsys):
    assert main(["chaos", "--scenario", "monkey", "--seed", "7",
                 "--messages", "20", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    shard = execute_task(RIGS["chaos"].grid(runs=1, messages=8,
                                            duration_ms=2000.0)[0])
    assert set(report) == set(shard["payload"])     # "ok" is in both
    assert report["report"]["name"] == "monkey" and report["ok"]


def test_output_is_json_and_stdout_stays_text_without_json(tmp_path, capsys):
    """Without ``--json`` stdout is the one renderer's ``path value``
    lines, the paths ``leaf_diff`` would name, then the verdict."""
    out = tmp_path / "adversary.json"
    assert main(["adversary", "--messages", "6", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "result: PASS"
    assert "messages 6" in lines and "faulty_ids[0] 92" in lines
    assert dict(line.split(" ", 1) for line in lines[:-1])["ok"] == "true"
    assert len(lines) - 1 == len(leaves(report))


def run_probe(probe):
    """Run ``probe`` in a fresh interpreter: what it imports is its own."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_a_plain_command_does_not_import_the_rig_table():
    """The table pulls in every subsystem a rig measures and the process
    pool; ``example3_1`` / ``trace`` / ``metrics`` must not pay for it
    (``demo`` loads ``repro.chaos`` for its programs, nothing more)."""
    probe = (
        "import sys\n"
        "from repro.__main__ import main\n"
        "for argv in (['example3_1'], ['metrics', '--duration', '200'],\n"
        "             ['trace', '--duration', '200'], ['demo']):\n"
        "    assert main(argv) == 0\n"
        "    heavy = [m for m in sys.modules if m.startswith(\n"
        "        ('repro.rigs', 'repro.parallel', 'repro.queueing',\n"
        "         'concurrent', 'multiprocessing')\n"
        "        + (('repro.chaos',) * (argv != ['demo'])))]\n"
        "    assert not heavy, (argv, heavy)\n")
    run_probe(probe)


def test_the_pool_package_does_not_import_the_table():
    """``repro.parallel`` is the two execution mechanisms: a ``des`` user,
    ``bench/probes.py`` and a spawn-start pool worker import it without
    the table or the queueing models."""
    probe = (
        "import sys\n"
        "import repro.parallel\n"
        "heavy = [m for m in sys.modules if m.startswith(\n"
        "    ('repro.rigs', 'repro.queueing'))]\n"
        "assert not heavy, heavy\n")
    run_probe(probe)


# ----------------------------------------------------------------------
# flags come from the declaration
# ----------------------------------------------------------------------
#: the report protocol's flags, which every rig's subcommand takes
PROTOCOL = {"--json", "--output", "--verify-determinism"}


@pytest.mark.parametrize("name", CLI_RIGS)
def test_subcommand_flags_are_the_declaration(name):
    expected = declared_flags(RIGS[name], "run") | PROTOCOL
    assert flags_of(subparser([name])) == expected


#: every flag each command takes besides the report protocol's. A
#: change here is a change at the command line, declared in CHANGES.md:
#: the table landed with the flags of PR 18; one scenario per rig took
#: ``--outage``, ``--no-contrast`` and ``--nodes`` off ``gossip`` and
#: ``--save-campaign`` off ``chaos``, and gave every rig
#: ``--verify-determinism``; ``--file`` left ``chaos`` (and ``sweep``)
#: with the campaign files, and ``--equivocate`` left ``adversary``
FLAGS = {
    "capacity": set(),
    "utilization": {"--point"},
    "figure57": set(),
    "chaos": {"--scenario", "--seed", "--nodes", "--pairs",
              "--messages", "--medium", "--duration"},
    "gossip": {"--seed", "--messages"},
    "adversary": {"--seed", "--f", "--byzantine", "--messages", "--modes",
                  "--rate"},
    "des": {"--clusters", "--cluster-size", "--messages", "--duration",
            "--topology", "--seed", "--des-workers", "--spread-delays"},
    "federation": {"--clusters", "--cluster-size", "--shards", "--topology",
                   "--messages", "--duration", "--seed", "--workers",
                   "--service-ms"},
    "media": {"--seed", "--messages"},
    "pipeline": {"--seed", "--messages"},
    "store": {"--seed"},
    "sweep": {"--kind", "--parallel", "--check", "--seed", "--runs",
              "--nodes", "--pairs", "--messages", "--medium", "--duration",
              "--disks", "--point", "--iterations", "--json",
              "--output"},
}


@pytest.mark.parametrize("name", CLI_RIGS)
def test_the_table_adds_no_option_to_a_subcommand(name):
    """The table is not a second front door: a grid parameter
    (``--disks``, ``--iterations``, ``--runs``) stays on ``sweep``."""
    assert flags_of(subparser([name])) == FLAGS[name] | PROTOCOL


@pytest.mark.parametrize("kind", GRID_RIGS)
def test_the_table_adds_no_option_to_sweep(kind):
    assert flags_of(subparser(["sweep", "--kind", kind])) <= FLAGS["sweep"]


def test_grid_parameters_are_sweep_only(capsys):
    for argv in (["capacity", "--disks", "2"],
                 ["figure57", "--iterations", "8"]):
        with pytest.raises(SystemExit):
            parse(argv)
    assert parse(["sweep", "--kind", "capacity", "--disks", "1,2"]).disks \
        == (1, 2)
    capsys.readouterr()


@pytest.mark.parametrize("kind", GRID_RIGS)
def test_sweep_accepts_exactly_its_kinds_parameters(kind):
    sweep = subparser(["sweep", "--kind", kind])
    assert flags_of(sweep) == (
        declared_flags(RIGS[kind], "grid")
        | {"--kind", "--parallel", "--check", "--json", "--output"})


def test_sweep_kind_choices_are_the_grid_rigs():
    kind = next(action for action in subparser(["sweep"])._actions
                if action.dest == "kind")
    assert sorted(kind.choices) == GRID_RIGS
    assert "federation" not in GRID_RIGS and "chaos" in GRID_RIGS


def test_a_flag_of_another_kind_is_an_argparse_error(capsys):
    assert parse(["sweep", "--kind", "chaos", "--runs", "3"]).runs == 3
    with pytest.raises(SystemExit) as exit_info:
        parse(["sweep", "--kind", "capacity", "--runs", "3"])
    assert exit_info.value.code == 2
    assert "--runs" in capsys.readouterr().err


def test_an_absent_bool_flag_is_passed_as_false_not_left_to_the_builder():
    """``des`` without ``--spread-delays`` passes ``False``, not the
    absence the declaration would fill in."""
    from repro.__main__ import _given

    des_params = RIGS["des"].params
    assert _given(parse(["des", "--clusters", "4"]), des_params) == {
        "clusters": 4, "spread_delays": False}
    assert _given(parse(["des", "--spread-delays"]),
                  des_params) == {"spread_delays": True}
    # a value flag left out is left to the declaration
    assert _given(parse(["sweep", "--kind", "chaos", "--runs", "3"]),
                  RIGS["chaos"].params) == {"runs": 3}
    assert _given(parse(["utilization"]), RIGS["utilization"].params) == {}


def test_removed_flags_are_gone():
    for argv in (["chaos", "--runs", "3"], ["chaos", "--parallel", "2"],
                 ["capacity", "--parallel", "2"],
                 ["utilization", "--parallel", "2"],
                 ["des", "--check"], ["federation", "--check"],
                 ["sweep", "--kind", "federation"],
                 ["gossip", "--outage", "900"], ["gossip", "--no-contrast"],
                 ["gossip", "--nodes", "3"],
                 ["chaos", "--save-campaign", "c.json"],
                 ["chaos", "--file", "c.json"],
                 ["sweep", "--kind", "chaos", "--file", "c.json"],
                 ["adversary", "--equivocate"],
                 ["sweep", "--kind", "store"]):
        with pytest.raises(SystemExit):
            parse(argv)


def test_no_add_argument_call_names_a_rig_parameter():
    """Every literal ``add_argument`` is in ``build_parser``; once it
    has imported the table, the only literal flags are the report
    protocol's and the sweep driver's own — a rig's come from
    ``_add_params``, whose flag is computed."""
    import ast

    import repro.__main__ as cli
    tree = ast.parse(Path(cli.__file__).read_text())

    def literal_flags(node, after_line=0):
        return {call.args[0].value for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and getattr(call.func, "attr", "") == "add_argument"
                and call.args and isinstance(call.args[0], ast.Constant)
                and call.lineno > after_line}

    funcs = {n.name: n for n in ast.walk(tree)
             if isinstance(n, ast.FunctionDef)}
    assert [name for name, func in funcs.items()
            if literal_flags(func)] == ["build_parser"]
    table_import = next(n.lineno for n in ast.walk(funcs["build_parser"])
                        if isinstance(n, ast.ImportFrom)
                        and n.module == "repro.rigs")
    assert literal_flags(funcs["build_parser"], table_import) == {
        "--json", "--output", "--verify-determinism",
        "--kind", "--parallel", "--check"}
    source = Path(cli.__file__).read_text()
    for medium in ("acking_ethernet", "csma_ethernet", "token_ring"):
        assert medium not in source
    assert "max_load_average" not in source


# ----------------------------------------------------------------------
# every documented command line parses
# ----------------------------------------------------------------------
DOCS = ([ROOT / "README.md", ROOT / ".claude/skills/verify/SKILL.md"]
        + sorted((ROOT / "docs").glob("*.md")))


def documented_commands():
    """``(where, argv)`` for every ``python -m repro ...`` in the docs:
    inline code spans (which may wrap) and shell lines (which may
    continue with a backslash and end in a comment)."""
    found = []
    for path in DOCS:
        text = re.sub(r"\\\n\s*", " ", path.read_text())
        spans = re.findall(r"`(?:PYTHONPATH=\S+ )?python -m repro([^`]*)`",
                           text)
        lines = re.findall(
            r"^\s*(?:PYTHONPATH=\S+ )?python -m repro([^`\n]*)$",
            text, flags=re.MULTILINE)
        for tail in spans + lines:
            tail = re.sub(r"\s+#.*$", "", " ".join(tail.split()))
            found.append((path.name, shlex.split(tail)))
    return found


DOCUMENTED = documented_commands()


def test_docs_hold_enough_command_lines():
    assert len(DOCUMENTED) >= 40


@pytest.mark.parametrize("where,argv", DOCUMENTED,
                         ids=[f"{where}:{' '.join(argv) or '-'}"
                              for where, argv in DOCUMENTED])
def test_documented_command_line_parses(where, argv):
    if argv:      # a bare "python -m repro" names the CLI, not a command
        parse(argv)


def test_readme_and_help_list_every_command():
    readme = (ROOT / "README.md").read_text()
    commands = build_parser([])._subparsers._group_actions[0].choices
    assert set(CLI_RIGS) | {"sweep"} <= set(commands)
    for name in commands:
        assert f"python -m repro {name}" in readme, name


# ----------------------------------------------------------------------
# one negative per driver
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["adversary", "store"])
def test_cli_driver_fails_a_rig_whose_second_run_differs(name, monkeypatch,
                                                         capsys):
    rig = RIGS[name]
    calls = []

    def drifting(params):
        calls.append(params)
        return dict(rig.run(params), drift=len(calls))

    monkeypatch.setitem(RIGS, name, dataclasses.replace(rig, run=drifting))
    argv = [name] + (["--messages", "6"] if name == "adversary" else [])
    assert main(argv) == 0
    assert main(argv + ["--verify-determinism"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "ok false" in lines and "replay_identical false" in lines
    assert lines[-1] == "result: FAIL"


def test_des_exits_1_on_divergence_with_no_flag(monkeypatch, capsys):
    real = des.run_pooled

    def diverging(scenario, workers):
        return dict(real(scenario, workers), digest="0" * 64)

    monkeypatch.setattr(des, "run_pooled", diverging)
    assert main(["des", "--clusters", "2", "--messages", "1",
                 "--duration", "300", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["equivalent"] and not report["ok"]
    assert report["mismatches"][0]["digest"] == "0" * 64


def test_sweep_check_fails_a_shard_that_differs_serially(monkeypatch,
                                                         capsys):
    """Pool workers are forked, so they inherit the patched table; the
    pid makes every pooled shard differ from its serial re-run."""
    monkeypatch.setitem(RIGS, "capacity", dataclasses.replace(
        RIGS["capacity"], run=lambda params: {"pid": os.getpid()}))
    assert main(["sweep", "--kind", "capacity", "--parallel", "2"]) == 0
    assert main(["sweep", "--kind", "capacity", "--parallel", "2",
                 "--check"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "capacity/mean/disks1" in out


def test_run_sweep_keeps_chunk_size():
    from repro.rigs import run_sweep

    merged = run_sweep("capacity", max_workers=2, chunk_size=1, check=True)
    assert merged["count"] == 4 and merged["serial_check"]["matches"]


def test_a_task_missing_a_parameter_is_a_typed_error_naming_the_shard():
    with pytest.raises(ReproError) as error:
        execute_task(make_task("capacity", "capacity/by-hand", point="mean"))
    assert "capacity/by-hand" in str(error.value)
    assert "'disks'" in str(error.value)


# ----------------------------------------------------------------------
# the determinism gate is a driver too
# ----------------------------------------------------------------------
def test_the_gate_fails_a_pooled_divergence_naming_workers_and_digests(
        monkeypatch):
    """A payload that fails its own ``ok`` is never committed: the gate
    raises with the rendered payload, which names each DES run's mode,
    worker count, digest and workload verdict."""
    from repro.rigs import FactDivergence, facts_report

    real_serial, real_pooled = des.run_serial, des.run_pooled
    for name, smoke in (("des", {"clusters": 2, "messages": 1,
                                 "duration_ms": 300.0, "des_workers": (2,)}),
                        ("federation", {"clusters": (2,), "messages": 1,
                                        "duration_ms": 400.0})):
        monkeypatch.setitem(RIGS, name, dataclasses.replace(
            RIGS[name], smoke=smoke))
    monkeypatch.setattr(
        des, "run_pooled", lambda scenario, workers: dict(
            real_pooled(scenario, workers), digest="0" * 64))
    with pytest.raises(FactDivergence) as error:
        facts_report(names=["des"], smoke=True)
    lines = str(error.value).splitlines()
    reference = real_serial(des.DesScenario(
        clusters=2, messages=1, duration_ms=300.0))["digest"]
    assert lines[0].startswith("the des rig failed at {'clusters': 2")
    assert lines[-1] == "result: FAIL"
    assert {"equivalent false", "runs[1].mode \"pooled\"",
            "runs[1].partitions 2", f"runs[0].digest \"{reference}\"",
            f"runs[1].digest \"{'0' * 64}\"",
            f"mismatches[0].digest \"{'0' * 64}\"",
            "runs[0].workload_ok true"} <= set(lines)
    with pytest.raises(FactDivergence) as error:
        facts_report(names=["federation"], smoke=True)
    assert "cells[0].digests_match false" in str(error.value)

    # an incomplete serial run reads differently from a pooled divergence
    monkeypatch.setattr(des, "run_pooled", real_pooled)
    monkeypatch.setattr(
        des, "run_serial", lambda scenario: dict(
            real_serial(scenario), workload_ok=False))
    with pytest.raises(FactDivergence) as error:
        facts_report(names=["des"], smoke=True)
    lines = set(str(error.value).splitlines())
    assert {"runs[0].workload_ok false", "runs[1].workload_ok true",
            "mismatches []", "equivalent false"} <= lines


def test_the_gate_fails_a_broken_campaign(monkeypatch):
    import repro.rigs as rigs
    from repro.chaos.campaign import InvariantCheck
    from repro.rigs import FactDivergence, facts_report

    real = rigs.run_scenario

    def breaking(*args, **kwargs):
        result = real(*args, **kwargs)
        result.report.invariants.append(
            InvariantCheck("injected", False, "patched in by the test"))
        return result

    monkeypatch.setattr(rigs, "run_scenario", breaking)
    with pytest.raises(FactDivergence) as error:
        facts_report(names=["chaos"], smoke=True)
    text = str(error.value)
    assert text.startswith("the chaos rig failed at {'scenario': 'monkey'")
    # the campaign report's every check, by path, the injected one too
    lines = text.splitlines()
    assert "report.ok false" in lines and "ok false" in lines
    names = {line.split(" ", 1)[1] for line in lines
             if line.startswith("report.invariants[")
             and ".name " in line}
    assert {'"injected"', '"workload_exact"'} <= names
    assert 'report.invariants[' in text and '"patched in by the test"' in text


def test_nothing_but_the_gate_reads_the_smoke_size():
    """The eleven ``if smoke`` / ``_SMOKE`` / ``_FULL`` switches are
    gone: in ``rigs.py`` the word ``smoke`` is the ``Rig`` field, the
    table's declarations, and the gate (``facts_report``) and
    ``smoke_argv`` reading them — no scenario branches on a size."""
    import ast

    import repro.rigs as rigs
    tree = ast.parse(Path(rigs.__file__).read_text())
    readers = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               for name in ast.walk(node)
               if (isinstance(name, ast.Name) and name.id == "smoke")
               or (isinstance(name, ast.Attribute) and name.attr == "smoke")}
    assert readers == {"facts_report", "smoke_argv"}
    assert not [node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and ("SMOKE" in node.id or "FULL" in node.id)]


def test_federation_runs_each_leg_once_per_cluster_count(monkeypatch):
    counts = (2, 3)
    calls = {"serial": [], "pooled": []}
    real_serial, real_pooled = des.run_serial, des.run_pooled

    def spy_serial(scenario):
        calls["serial"].append(scenario.clusters)
        return real_serial(scenario)

    def spy_pooled(scenario, workers):
        calls["pooled"].append((scenario.clusters, workers))
        return real_pooled(scenario, workers)

    monkeypatch.setattr(des, "run_serial", spy_serial)
    monkeypatch.setattr(des, "run_pooled", spy_pooled)
    report = RIGS["federation"](clusters=counts, messages=1,
                                duration_ms=400.0)
    assert calls["serial"] == list(counts)
    assert calls["pooled"] == [(count, 2) for count in counts]
    assert [cell["clusters"] for cell in report["cells"]] == list(counts)


# ----------------------------------------------------------------------
# a digest never stringifies what JSON cannot encode
# ----------------------------------------------------------------------
def test_unencodable_payload_is_a_typed_error_naming_shard_and_path(
        monkeypatch):
    monkeypatch.setitem(RIGS, "opaque", Rig(
        "opaque", "", (), run=lambda params: {"fine": 1,
                                              "deep": [{"x": object()}]}))
    with pytest.raises(ReproError) as error:
        execute_task(make_task("opaque", "opaque/000"))
    assert "opaque/000" in str(error.value)
    assert "shard.payload.deep.0.x" in str(error.value)
