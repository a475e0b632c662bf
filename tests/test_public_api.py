"""Public-API surface checks: exports resolve, errors form a hierarchy."""

import importlib

import pytest

import repro
import repro.chaos
import repro.cluster
import repro.debugger
import repro.demos
import repro.metrics
import repro.net
import repro.obs
import repro.parallel
import repro.publishing
import repro.queueing
import repro.rigs
import repro.sim
import repro.txn
from repro import errors


@pytest.mark.parametrize("module", [
    repro, repro.sim, repro.net, repro.demos, repro.publishing,
    repro.queueing, repro.txn, repro.debugger, repro.cluster, repro.metrics,
    repro.parallel, repro.chaos, repro.obs,
])
def test_all_exports_resolve(module):
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module.__name__}.{name} missing"
    # The packages that load submodules on first access (docs/
    # PERFORMANCE.md, "Start-up"): an export is its defining module's
    # own object, listed by dir(), bound by a star import, and an
    # unknown name is an AttributeError naming the package.
    if module not in (repro.net, repro.publishing, repro.queueing):
        return
    for name, submodule in module._EXPORTS.items():
        defining = importlib.import_module(f"{module.__name__}.{submodule}")
        assert getattr(module, name) is getattr(defining, name), name
    assert set(module.__all__) <= set(dir(module))
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match=module.__name__):
        module.no_such_export


def test_partitioned_des_exports_two_modes():
    # One reference, one proof: the in-process second implementation of
    # the promise protocol is gone from both packages.
    runners = {name for name in repro.parallel.__all__
               if name.startswith("run_") and "task" not in name}
    assert runners == {"run_serial", "run_pooled"}
    # the sweep driver lives with the table it drives, and the package
    # of execution mechanisms re-exports nothing from it
    assert repro.rigs.run_sweep.__module__ == "repro.rigs"
    for name in repro.parallel.__all__:
        assert getattr(repro.parallel, name).__module__.startswith(
            "repro.parallel."), name
    assert "PartitionChannel" in repro.sim.__all__
    assert "PartitionedEngine" not in repro.sim.__all__
    assert not hasattr(repro.sim, "PartitionedEngine")


def test_error_hierarchy():
    roots = [
        errors.SimulationError, errors.NetworkError, errors.KernelError,
        errors.RecorderError, errors.RecoveryError, errors.StorageError,
        errors.TransactionError, errors.QueueingModelError,
        errors.EncodingError,
    ]
    for exc in roots:
        assert issubclass(exc, errors.ReproError)
    assert issubclass(errors.LinkError, errors.KernelError)
    assert issubclass(errors.ProcessError, errors.KernelError)
    # Library errors are catchable without swallowing TypeError etc.
    assert not issubclass(errors.ReproError, (TypeError, ValueError))
    # ... except the one that is a wrong-type report by nature.
    assert issubclass(errors.EncodingError, TypeError)


def test_src_raises_no_bare_builtin_error():
    """Every deliberate failure is a ``ReproError``: a value or type
    complaint dual-inherits (``ConfigError``, ``EncodingError``,
    ``MetricKindError``, ``AdversaryConfigError``), so ``except
    ValueError`` / ``TypeError`` callers keep working."""
    import ast
    from pathlib import Path

    bare = {"ValueError", "TypeError", "RuntimeError", "KeyError"}
    found = []
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if getattr(exc, "id", None) in bare:
                    found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []
    for exc, builtin in ((errors.ConfigError, ValueError),
                         (errors.MetricKindError, TypeError)):
        assert issubclass(exc, errors.ReproError) and issubclass(exc, builtin)


def test_version_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_top_level_convenience_names():
    # The names the README/tutorial lean on.
    for name in ("System", "SystemConfig", "Program", "GeneratorProgram",
                 "Recv", "ProcessId", "kernel_pid", "Link"):
        assert hasattr(repro, name)
