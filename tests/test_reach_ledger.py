"""The reach ledger (``tools/reach_ledger.py``) notes what it is meant to.

Its recorder runs inside other processes, so each recorder test starts
a fresh interpreter that installs it, enters some functions of
``src/repro`` and exits (or is killed); the notes it leaves are read
back with the ledger's own reader. The report half is tested on a small
source tree written for the test.
"""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
TOOLS = os.path.join(ROOT, "tools")


def load_ledger():
    spec = importlib.util.spec_from_file_location(
        "reach_ledger", os.path.join(TOOLS, "reach_ledger.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ledger = load_ledger()


def record(out, body, label="probe"):
    """Run ``body`` in a fresh interpreter under the recorder; returns
    the finished process and the notes filed under ``label``."""
    script = ("import sys\n"
              "import reach_ledger\n"
              f"reach_ledger.install(sys.argv[1], {label!r})\n"
              "from repro.cluster import gateways\n"
              + textwrap.dedent(body))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [TOOLS, os.path.join(ROOT, "src")]))
    done = subprocess.run([sys.executable, "-c", script, str(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    return done, ledger.entered(str(out))[label]


def names(notes):
    return {name for _, _, name in notes}


def key_of(function):
    """The key the ledger matches a function's code object by."""
    code = function.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def keys(entries):
    return {ledger.matching_key(entry) for entry in entries}


# ----------------------------------------------------------------------
# the recorder
# ----------------------------------------------------------------------
def test_recorder_notes_each_entered_function_of_src_once(tmp_path):
    done, notes = record(tmp_path, """
        for _ in range(3):
            gateways.federation_edges(3)
        """)
    assert done.returncode == 0, done.stderr
    from repro.cluster import gateways
    assert key_of(gateways.federation_edges) in keys(notes)
    assert key_of(gateways.federation_edges) in keys(ledger.definitions())
    assert "lp_of" not in names(notes)                # never entered
    assert all(path.startswith(ledger.SRC + os.sep) for path, _, _ in notes)
    lines = open(next(tmp_path.glob("probe.*.notes"))).read().splitlines()
    assert len(lines) == len(set(lines))              # once per code object


def test_recorder_chains_behind_a_profiler_the_suite_sets(tmp_path):
    """A profiler set with ``sys.setprofile`` runs first and the
    recorder after it; clearing it re-arms the recorder alone."""
    done, notes = record(tmp_path, """
        seen = []
        sys.setprofile(lambda frame, event, arg: seen.append(event))
        gateways.federation_edges(3)
        sys.setprofile(None)
        gateways.gateway_id_base(3)
        assert "call" in seen
        after = len(seen)
        gateways.lp_of(1, 2, 3)
        assert len(seen) == after                     # the suite's is gone
        """)
    assert done.returncode == 0, done.stderr
    assert {"federation_edges", "gateway_id_base", "lp_of"} <= names(notes)


def test_recorder_rearms_after_cprofile_and_harvests_its_stats(tmp_path):
    """``cProfile`` displaces the recorder while enabled: what it saw
    comes from its stats, and the recorder is back once it stops."""
    done, notes = record(tmp_path, """
        import cProfile
        profile = cProfile.Profile()
        profile.enable()
        gateways.federation_edges(3)
        profile.disable()
        gateways.lp_of(1, 2, 3)
        """)
    assert done.returncode == 0, done.stderr
    assert {"federation_edges", "lp_of"} <= names(notes)


def test_recorder_follows_threads_started_after_it(tmp_path):
    done, notes = record(tmp_path, """
        import threading
        worker = threading.Thread(target=gateways.federation_edges,
                                  args=(3,))
        worker.start()
        worker.join()
        """)
    assert done.returncode == 0, done.stderr
    assert "federation_edges" in names(notes)


def test_notes_of_a_process_ended_by_sigterm_still_count(tmp_path):
    """A pool worker is ended by SIGTERM, with no exit handler run:
    each note is on disk the moment its function is first entered."""
    done, notes = record(tmp_path, """
        import os, signal
        gateways.federation_edges(3)
        os.kill(os.getpid(), signal.SIGTERM)
        """)
    assert done.returncode == -signal.SIGTERM
    assert "federation_edges" in names(notes)


def test_every_function_object_of_src_matches_a_definition():
    """The key a code object is matched by — file, first line
    counting decorators, name — is the key of the ``def`` it came from
    in ``definitions``, for every function and method the modules of
    ``src/repro`` hold (generated methods aside)."""
    import importlib
    import inspect
    import pkgutil

    import repro
    defs = keys(ledger.definitions())
    checked = missing = 0
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        holders = [module] + [value for value in vars(module).values()
                              if inspect.isclass(value)
                              and value.__module__ == info.name]
        for holder in holders:
            for value in vars(holder).values():
                if isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                elif isinstance(value, property):
                    value = value.fget
                code = getattr(value, "__code__", None)
                if (code is None
                        or not code.co_filename.startswith(ledger.SRC)):
                    continue
                checked += 1
                missing += key_of(value) not in defs
    assert checked > 500
    assert missing == 0


# ----------------------------------------------------------------------
# the definitions and the report
# ----------------------------------------------------------------------
SAMPLE = '''\
import functools


def plain():
    return [x for x in range(3)]


@functools.lru_cache(maxsize=None)
def decorated(
        value):
    return value


class Outer:
    class Inner:
        @property
        def size(self):
            return 1

    def method(self):
        def helper():
            return 2
        handler = lambda: 3
        return helper() + handler()


async def waits():
    return None
'''


@pytest.fixture
def sample_tree(tmp_path, monkeypatch):
    """A one-file ``src/repro`` for the ledger to read."""
    src = tmp_path / "repro"
    src.mkdir()
    (src / "sample.py").write_text(SAMPLE)
    monkeypatch.setattr(ledger, "SRC", str(src))
    monkeypatch.setattr(ledger, "ROOT", str(tmp_path))
    return str(src / "sample.py")


def test_definitions_key_by_decorator_line_and_qualified_name(sample_tree):
    defs = ledger.definitions()
    assert defs == {
        (sample_tree, 4, "plain"): 2,
        (sample_tree, 8, "decorated"): 4,
        (sample_tree, 16, "Outer.Inner.size"): 3,
        (sample_tree, 20, "Outer.method"): 5,
        (sample_tree, 21, "Outer.method.<locals>.helper"): 2,
        (sample_tree, 27, "waits"): 2,
    }                   # no entry for the lambda or the comprehension


def test_definitions_keys_are_the_keys_the_interpreter_gives(sample_tree):
    namespace = {}
    exec(compile(SAMPLE, sample_tree, "exec"), namespace)
    outer = namespace["Outer"]
    functions = [namespace["plain"], namespace["decorated"].__wrapped__,
                 outer.Inner.size.fget, outer.method, namespace["waits"]]
    defs = keys(ledger.definitions())
    assert all(key_of(function) in defs for function in functions)


def test_entered_unions_the_notes_of_every_process_of_a_label(tmp_path):
    (tmp_path / "tests.11.notes").write_text("/a.py\t3\tf\n/a.py\t9\tg\n")
    (tmp_path / "tests.12.notes").write_text("/a.py\t3\tf\n")
    (tmp_path / "product.13.notes").write_text("/a.py\t9\tg\n")
    assert ledger.entered(str(tmp_path)) == {
        "tests": {("/a.py", 3, "f"), ("/a.py", 9, "g")},
        "product": {("/a.py", 9, "g")},
    }


def test_report_splits_never_entered_from_entered_only_by_tests(
        sample_tree, tmp_path, capsys):
    out = tmp_path / "ledger"
    out.mkdir()
    (out / "product.1.notes").write_text(
        f"{sample_tree}\t4\tplain\n{sample_tree}\t20\tOuter.method\n")
    (out / "tests.2.notes").write_text(
        f"{sample_tree}\t4\tplain\n{sample_tree}\t8\tdecorated\n"
        f"{sample_tree}\t27\twaits\n")
    ledger.report(str(out))
    text = capsys.readouterr().out
    never, only_tests = text.split("\n\nentered only by tier-1 tests")
    assert "src/: 6 function definitions, 18 lines" in never
    assert "never entered: 2 functions, 5 lines" in never
    assert "Outer.Inner.size" in never and "Outer.method.<locals>.helper" in never
    assert ": 2 functions, 6 lines" in only_tests
    assert "decorated" in only_tests and "waits" in only_tests
    assert "plain" not in text and "Outer.method " not in text


@pytest.mark.parametrize("argv", [[], ["run"], ["walk", "out"],
                                  ["report", "a", "b"]])
def test_a_wrong_command_line_prints_usage_and_exits_2(argv, capsys):
    assert ledger.main(argv) == 2
    assert "usage:" in capsys.readouterr().err


def test_the_product_paths_cover_every_subcommand_and_workload():
    """``run`` records every subcommand at its defaults, the
    determinism gate, each example, each bench workload and each grid
    rig's CI sweep cell; tier-1 is recorded apart from them."""
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, "tools")
        import reach_ledger
        commands = [argv[1:] for argv in reach_ledger.product_commands()]
        from repro.__main__ import build_parser
        from repro.rigs import ci_commands
        from workloads import BY_NAME
        parser = build_parser([])
        subcommands = next(a for a in parser._actions
                           if a.dest == "command").choices
        sweeps = [argv for _, argv in ci_commands() if argv[0] == "sweep"]
        print(json.dumps({"commands": commands,
                          "subcommands": sorted(subcommands),
                          "workloads": sorted(BY_NAME),
                          "sweeps": sweeps}))
        """)
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    commands = seen["commands"]
    assert ["-m", "repro", "facts", "--smoke", "--compare",
            "BENCH_publishing.json"] in commands
    for name in seen["subcommands"]:
        if name not in ("facts", "sweep"):
            assert ["-m", "repro", name] in commands
    assert seen["sweeps"]
    for argv in seen["sweeps"]:
        assert ["-m", "repro", *argv] in commands
    for name in seen["workloads"]:
        assert ["bench/run.py", "--workload", name, "--seconds", "1",
                "--trace", "1"] in commands
    examples = sorted(f for f in os.listdir(os.path.join(ROOT, "examples"))
                      if f.endswith(".py"))
    assert [os.path.basename(argv[0]) for argv in commands
            if argv[0].startswith(os.path.join(ROOT, "examples"))] \
        == examples
    assert not any("tests" in argv for argv in commands)
