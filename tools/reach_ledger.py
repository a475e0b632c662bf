"""Reach ledger: which functions of ``src/`` a product path enters.

A ``sys.setprofile`` recorder, loaded into every Python process of a run
by a generated ``sitecustomize`` on ``PYTHONPATH``, notes each code
object of ``src/repro`` the process enters. The notes are then matched
to the ``def`` statements of ``src/`` and split three ways: functions a
product path enters, functions only the tier-1 tests enter, and
functions nothing enters.

The product paths are ``benchmarks/``, the determinism gate
(``facts --smoke --compare BENCH_publishing.json``), the examples,
the bench workloads, every CLI subcommand at its defaults and ``sweep``
over each grid rig's CI cell. From the repository root::

    python tools/reach_ledger.py run OUT      # record everything, then report
    python tools/reach_ledger.py report OUT   # report an earlier recording again

``run`` takes several minutes (tier-1 runs about 2.5 times slower
under the recorder). It needs pytest, hypothesis and pytest-benchmark,
like the test suites it runs; the report exits 0 whatever it lists.

How the recorder stays complete:

- it chains behind the suites' own ``sys.setprofile`` users
  (``tests/fixtures.py``, ``tests/test_counted_work.py``): a profiler
  they set runs first and the recorder after it, and clearing theirs
  re-arms the recorder;
- ``cProfile`` displaces it while enabled, so after each
  ``cProfile.Profile.disable`` it notes the code objects that
  profiler's stats hold and re-arms itself;
- each first-seen code object is appended to a per-process file at
  once, so a pool worker ended by SIGTERM still counts;
- a code object is matched to its definition by (file, first line
  counting decorators, name); the qualified name the notes carry is
  for reading, and Python before 3.11 has none to give.

A generated method (a dataclass ``__init__``) has no ``def`` in
``src/`` and is not listed; a lambda or comprehension is not a
definition either.
"""

from __future__ import annotations

import ast
import collections
import glob
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

#: the label every note of a process is filed under, and where
LABEL_VAR, OUT_VAR = "REACH_LEDGER_LABEL", "REACH_LEDGER_OUT"


# ----------------------------------------------------------------------
# the recorder (runs inside every process of a recorded command)
# ----------------------------------------------------------------------
def install(out: str, label: str) -> None:
    """Start noting the ``src/repro`` code objects this process enters."""
    seen = set()
    keep = []                 # holds each code object, so its id stays unique
    prefix = SRC + os.sep

    def note(code) -> None:
        key = id(code)
        if key in seen:
            return
        seen.add(key)
        keep.append(code)
        path = code.co_filename
        if path.startswith(prefix):
            name = getattr(code, "co_qualname", code.co_name)
            with open(os.path.join(out, f"{label}.{os.getpid()}.notes"), "a",
                      encoding="utf-8") as notes:
                notes.write(f"{path}\t{code.co_firstlineno}\t{name}\n")

    def hook(frame, event, arg) -> None:
        if event == "call":
            note(frame.f_code)

    set_profile = sys.setprofile

    def chained(profiler):
        def both(frame, event, arg):
            profiler(frame, event, arg)
            hook(frame, event, arg)
        both.chained = True
        return both

    def setprofile(profiler) -> None:
        if profiler is None:
            set_profile(hook)
        elif profiler is hook or getattr(profiler, "chained", False):
            set_profile(profiler)
        else:
            set_profile(chained(profiler))

    import cProfile
    disable = cProfile.Profile.disable

    def disable_and_rearm(profile) -> None:
        disable(profile)
        for entry in profile.getstats():
            if not isinstance(entry.code, str):
                note(entry.code)
        set_profile(hook)

    cProfile.Profile.disable = disable_and_rearm
    sys.setprofile = setprofile
    threading.setprofile(hook)
    set_profile(hook)


# ----------------------------------------------------------------------
# the runs
# ----------------------------------------------------------------------
def product_commands():
    """Every product path, as argv lists run from the repository root."""
    py = sys.executable
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.__main__ import build_parser
    from repro.rigs import ci_commands

    commands = [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--benchmark-disable", "benchmarks"],
                [py, "-m", "repro", "facts", "--smoke", "--compare",
                 "BENCH_publishing.json"]]
    commands += [[py, path] for path in sorted(
        glob.glob(os.path.join(ROOT, "examples", "*.py")))]
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from workloads import BY_NAME
    commands += [[py, "bench/run.py", "--workload", name, "--seconds", "1",
                  "--trace", "1"] for name in BY_NAME]
    subparsers = next(action for action in build_parser([])._actions
                      if action.dest == "command")
    commands += [[py, "-m", "repro", name] for name in subparsers.choices
                 if name not in ("facts", "sweep")]
    commands += [[py, "-m", "repro", *argv] for _, argv in ci_commands()
                 if argv[0] == "sweep"]
    return commands


def record(out: str) -> None:
    """Run tier-1 (label ``tests``) and every product path (label
    ``product``) under the recorder, filing notes in ``out``."""
    hook = os.path.join(out, "hook")
    os.makedirs(hook, exist_ok=True)
    for stale in glob.glob(os.path.join(out, "*.notes")):
        os.remove(stale)
    with open(os.path.join(hook, "sitecustomize.py"), "w",
              encoding="utf-8") as handle:
        handle.write(
            "import os, sys\n"
            f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
            "import reach_ledger\n"
            f"reach_ledger.install(os.environ[{OUT_VAR!r}], "
            f"os.environ[{LABEL_VAR!r}])\n")
    runs = [("tests", [sys.executable, "-m", "pytest", "-q",
                       "-p", "no:cacheprovider", "tests"])]
    runs += [("product", argv) for argv in product_commands()]
    for label, argv in runs:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [hook, os.path.join(ROOT, "src")]),
            **{LABEL_VAR: label, OUT_VAR: os.path.abspath(out)})
        print("#", label, " ".join(argv[1:]), file=sys.stderr, flush=True)
        code = subprocess.run(argv, cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL).returncode
        if code:
            print(f"#   exit {code}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def definitions():
    """``{(path, first line, qualname): lines}`` of every function
    defined in ``src/repro``; the first line counts decorators."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d
                                              in child.decorator_list])
                qualname = prefix + child.name
                found[path, first, qualname] = child.end_lineno - first + 1
                walk(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as handle:
            walk(ast.parse(handle.read()), path, "")
    return found


def entered(out: str):
    """``{label: {(path, first line, name)}}`` from the notes; the
    name is qualified from Python 3.11 on."""
    notes = collections.defaultdict(set)
    for path in glob.glob(os.path.join(out, "*.notes")):
        label = os.path.basename(path).split(".")[0]
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                file, first, name = line.rstrip("\n").split("\t")
                notes[label].add((file, int(first), name))
    return notes


def matching_key(key):
    """``(path, first line, name)`` of a definition or a note. The
    qualified name is cut to its last part, since Python before 3.11
    notes the bare name; that part still tells a ``def`` from a lambda
    or comprehension that starts on the same line."""
    path, first, name = key
    return path, first, name.rsplit(".", 1)[-1]


def report(out: str) -> None:
    defs = definitions()
    notes = entered(out)
    product, tests = ({matching_key(key) for key in notes[label]}
                      for label in ("product", "tests"))
    never = [key for key in defs if matching_key(key) not in product
             and matching_key(key) not in tests]
    only_tests = [key for key in defs if matching_key(key) in tests
                  and matching_key(key) not in product]
    print(f"src/: {len(defs)} function definitions, "
          f"{sum(defs.values())} lines")
    for title, keys in (("never entered", never),
                        ("entered only by tier-1 tests", only_tests)):
        print(f"\n{title}: {len(keys)} functions, "
              f"{sum(defs[key] for key in keys)} lines")
        for path, first, name in sorted(keys):
            print(f"  {os.path.relpath(path, ROOT)}:{first}  {name}  "
                  f"({defs[path, first, name]} lines)")


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in ("run", "report"):
        print("usage: python tools/reach_ledger.py {run,report} OUT",
              file=sys.stderr)
        return 2
    command, out = argv
    os.makedirs(out, exist_ok=True)
    if command == "run":
        record(out)
    report(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
