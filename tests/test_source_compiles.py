"""Every Python file of the repository compiles with compiler warnings
raised as errors.

This is the part of a linter that the interpreter already knows:
syntax errors (ruff's E9), statements in the wrong place such as a
``return`` outside a function or a ``break`` outside a loop (F7), and
``is`` against a literal (the ``is``-literal half of F63), which the
compiler reports as a ``SyntaxWarning``. An invalid escape sequence in
a string is a ``SyntaxWarning`` from Python 3.12 and a
``DeprecationWarning`` before, so both are errors here. Nothing is
written: the source is compiled in memory and thrown away.

The compiler's symbol tables (``symtable``) add F82: a name a scope
reads that no enclosing function binds, that the module does not bind
(by assignment, import, ``def``, ``class`` or a ``global`` statement)
and that is not a builtin is undefined.

And two reach checks no linter makes: every function and class of
``src/`` is named somewhere a product path reads (``src/``, ``bench/``,
``benchmarks/``, ``examples/``), or it is in ``TEST_ONLY`` with the
reason it stays although only tests call it; and every attribute that
``src/`` stores on ``self`` is read somewhere in the six trees, or it
is in ``UNREAD`` with the reason it stays although nothing reads it.
"""

import ast
import builtins
import collections
import os
import re
import symtable
import warnings

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TREES = ("src", "tests", "bench", "benchmarks", "examples", "tools")


def python_files():
    for tree in TREES:
        for folder, dirs, files in os.walk(os.path.join(ROOT, tree)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(folder, name), ROOT)


def test_the_trees_hold_python_files():
    found = {path.split(os.sep)[0] for path in python_files()}
    assert found == set(TREES)


def compile_error(path):
    """What compiling ``path`` with warnings as errors raised, or None."""
    with open(os.path.join(ROOT, path), "rb") as handle:
        source = handle.read()
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        warnings.simplefilter("error", DeprecationWarning)
        try:
            compile(source, path, "exec", dont_inherit=True)
        except (SyntaxError, SyntaxWarning, DeprecationWarning) as exc:
            return f"{path}: {exc}"
    return None


def test_every_file_compiles_without_warnings():
    errors = [error for error in map(compile_error, python_files()) if error]
    assert errors == []


def test_a_warning_is_an_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        with pytest.raises(SyntaxError):
            compile("x = 1\ny = x is 1\n", "<literal>", "exec",
                    dont_inherit=True)
        with pytest.raises(SyntaxError):
            compile("def f():\n    pass\nreturn 1\n", "<return>", "exec",
                    dont_inherit=True)


#: names every module has without binding them
MODULE_NAMES = {"__file__", "__name__", "__doc__", "__spec__", "__loader__",
                "__package__", "__builtins__", "__path__", "__annotations__"}


def tables(table):
    yield table
    for child in table.get_children():
        yield from tables(child)


def undefined_names(source, path):
    """``(scope, line, name)`` of every name a scope of ``source`` reads
    that resolves to nothing: not bound in the scope or an enclosing
    function (symtable resolves those), nor in the module, nor a
    builtin. A class body's names are its own: a method that reads one
    bare reads a global."""
    module = symtable.symtable(source, path, "exec")
    bound = set(dir(builtins)) | MODULE_NAMES
    for table in tables(module):
        for symbol in table.get_symbols():
            if table is module and (symbol.is_assigned()
                                    or symbol.is_imported()):
                bound.add(symbol.get_name())
            elif symbol.is_declared_global() and symbol.is_assigned():
                bound.add(symbol.get_name())
    return [(table.get_name(), table.get_lineno(), symbol.get_name())
            for table in tables(module) for symbol in table.get_symbols()
            if symbol.is_referenced() and not symbol.is_free()
            and (table is module or symbol.is_global())
            and symbol.get_name() not in bound]


def test_no_file_reads_an_undefined_name():
    found = []
    for path in python_files():
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            found += [(path, *name)
                      for name in undefined_names(handle.read(), path)]
    assert found == []


def test_an_undefined_name_is_found_in_a_function_and_a_class_body():
    source = ("import os\n"
              "COUNT = 1\n"
              "def uses(arg):\n"
              "    global LATER\n"
              "    LATER = arg\n"
              "    return os.sep, COUNT, len(arg), missing_in_function\n"
              "class Table:\n"
              "    size = COUNT + LATER\n"
              "    rows = [missing_in_class]\n"
              "    def read(self):\n"
              "        return size\n"
              "def outer():\n"
              "    kept = 1\n"
              "    def inner():\n"
              "        return kept, __file__\n"
              "    return inner\n")
    assert undefined_names(source, "<snippet>") == [
        ("uses", 3, "missing_in_function"),
        ("Table", 7, "missing_in_class"),
        ("read", 10, "size")]


#: the trees whose code a product path runs: the library, the
#: benchmark, the paper-number benchmarks and the examples
PRODUCT_TREES = ("src", "bench", "benchmarks", "examples")

#: definitions in src/ whose name nothing but tests (and docs) names,
#: each kept for the reason given; anything else that only tests reach
#: is deleted instead
TEST_ONLY = {
    "run_to": "ReplayDebugger's stepping API (§6.5), beside run_until",
    "run_until": "ReplayDebugger's stepping API (§6.5), documented in "
                 "docs/TUTORIAL.md",
    "with_code": "a DEMOS link's per-resource copy (§4.2), the server "
                 "idiom its docstring names",
    "lose_next": "test fault injection: the targeted losses the transport "
                 "tests script",
    "payload_classes": "the read view of the closed wire registry that "
                       "tests/test_net_frames.py checks",
    "set_bound": "the bound checkpoint policy's per-process bound, "
                 "documented in docs/TUTORIAL.md",
    "completion_signal": "a program's wait on a recovery "
                         "(tests/test_recovery_e2e.py)",
    "t_max_for_messages": "§3.2.3's recovery-time bound in the thesis's "
                          "per-message form",
    "recorder_buffer_bytes": "§5.1's recorder buffer figure (at most 28 KB)",
}


def test_every_definition_in_src_is_named_by_a_product_tree():
    """A function or class of ``src/`` whose name occurs nowhere in
    ``src/``, ``bench/``, ``benchmarks/`` or ``examples/`` but on its
    own ``def`` line is reached by tests alone. Dunder methods are the
    interpreter's to call."""
    words = collections.Counter()
    sources = {}
    for path in python_files():
        if path.split(os.sep)[0] in PRODUCT_TREES:
            with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
                sources[path] = handle.read()
            words.update(re.findall(r"\w+", sources[path]))
    unnamed = set()
    for path, source in sources.items():
        if not path.startswith("src"):
            continue
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = re.findall(r"\w+", lines[node.lineno - 1]).count(name)
            if words[name] == own:
                unnamed.add(name)
    assert unnamed - set(TEST_ONLY) == set()    # reached by tests alone
    assert set(TEST_ONLY) - unnamed == set()    # named by a product now


#: classes whose attributes are a process's state: a program's snapshot
#: is its instance dict, so each attribute it stores is what a
#: checkpoint holds and a recovery restores, read or not
PROGRAM_BASES = {"ProgramBase"}

#: attributes src/ stores on ``self`` that nothing reads, each kept for
#: the reason given; any other such store is deleted instead
UNREAD = {}


def attribute_name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def unread_stores(sources):
    """Of ``{path: source}``, the attributes that a class of ``src/``
    stores on ``self`` and no file loads, as ``{attr: [(path, line)]}``.
    A load is an ``x.attr`` read or a ``getattr`` / ``attrgetter``
    string; a ``__slots__`` string or a docstring is none. The classes
    derived from :data:`PROGRAM_BASES` are left out."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    src = [path for path in trees if path.split(os.sep)[0] == "src"]
    bases = {node.name: {attribute_name(base) for base in node.bases}
             for path in src for node in ast.walk(trees[path])
             if isinstance(node, ast.ClassDef)}

    def program(name, seen=()):
        return name in PROGRAM_BASES or any(
            program(base, seen + (name,)) for base in bases.get(name, ())
            if base not in seen)

    loads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                loads.add(node.attr)
            elif (isinstance(node, ast.Call) and attribute_name(node.func)
                    in ("getattr", "attrgetter")):
                loads.update(part for arg in node.args
                             if isinstance(arg, ast.Constant)
                             and isinstance(arg.value, str)
                             for part in arg.value.split("."))
    stores = collections.defaultdict(list)
    for path in src:
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef) or program(cls.name):
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and attribute_name(node.value) == "self"
                        and node.attr not in loads):
                    stores[node.attr].append((path, node.lineno))
    return dict(stores)


def test_every_attribute_src_stores_is_read():
    sources = {}
    for path in python_files():
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            sources[path] = handle.read()
    unread = unread_stores(sources)
    assert {attr: unread[attr] for attr in set(unread) - set(UNREAD)} == {}
    assert set(UNREAD) - set(unread) == set()   # read by something now


def test_an_unread_store_is_found_and_a_read_one_is_not():
    module = os.path.join("src", "sample.py")
    sources = {
        module: ("class Base:\n"
                 "    __slots__ = ('unread', 'slot')\n"
                 "    def __init__(self):\n"
                 "        '''sets unread'''\n"
                 "        self.read = self.slot = 1\n"
                 "        self.unread = 0\n"
                 "        self.named, self.dotted = 2, 3\n"
                 "    def use(self):\n"
                 "        return self.read, getattr(self, 'named')\n"
                 "class Kept(Base, ProgramBase):\n"
                 "    def setup(self):\n"
                 "        self.checkpointed = 4\n"),
        os.path.join("tests", "sample.py"):
            "import operator\nread = operator.attrgetter('x.dotted')\n",
    }
    assert unread_stores(sources) == {"unread": [(module, 6)],
                                      "slot": [(module, 5)]}
