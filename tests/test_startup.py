"""What a fresh process loads (docs/PERFORMANCE.md, "Start-up").

A run imports the modules its configuration builds and nothing more:
the other media, gossip, the multi-recorder and the queueing model load
where they are built or first named. Seeds and digests come from
CPython's built-in sha256, so OpenSSL's libcrypto stays out of the
process; the values are the ones ``hashlib`` gives.

The probes run in a fresh interpreter: pytest and hypothesis have
already imported ``hashlib`` and most of ``repro`` in this one.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.digest import text_digest
from repro.sim.rng import derive_seed, sha256

ROOT = Path(__file__).resolve().parents[1]

#: the ``repro`` modules of ``System(SystemConfig())`` booted and run
DEFAULT_RUN = {
    "repro", "repro.costs", "repro.demos",
    "repro.demos.ids", "repro.demos.kernel", "repro.demos.kernel_process",
    "repro.demos.links", "repro.demos.messages",
    "repro.demos.process", "repro.demos.queue", "repro.demos.sysprocs",
    "repro.errors", "repro.net", "repro.net.faults",
    "repro.net.frames", "repro.net.media", "repro.net.transport",
    "repro.obs", "repro.obs.events", "repro.obs.metrics",
    "repro.publishing", "repro.publishing.checkpoints",
    "repro.publishing.database", "repro.publishing.disk",
    "repro.publishing.recorder", "repro.publishing.recovery_manager",
    "repro.publishing.recovery_time", "repro.publishing.stable_storage",
    "repro.publishing.store", "repro.publishing.watchdog", "repro.sim",
    "repro.sim.engine", "repro.sim.rng", "repro.system",
}

#: CPython's built-in sha2 module (3.12+, then 3.9-3.11), None on a
#: build without one; where it exists nothing may load OpenSSL
BUILTIN_SHA2 = next((name for name in ("_sha2", "_sha256")
                     if importlib.util.find_spec(name) is not None), None)


def run_fresh(code):
    """Run ``code`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_by(config="", then=""):
    """The ``repro`` modules, and whether ``_hashlib``, after a system
    of ``SystemConfig(<config>)`` boots and runs 200 ms, then ``then``."""
    return run_fresh(
        "import json, sys\n"
        "from repro import System, SystemConfig\n"
        f"system = System(SystemConfig({config}))\n"
        "system.boot()\n"
        "system.run(200)\n"
        f"{then}\n"
        "print(json.dumps([sorted(m for m in sys.modules\n"
        "                         if m.split('.')[0] == 'repro'),\n"
        "                  '_hashlib' in sys.modules]))\n")


def test_a_default_run_loads_its_pinned_modules_and_no_openssl():
    modules, hashlib_loaded = loaded_by()
    assert set(modules) == DEFAULT_RUN
    if BUILTIN_SHA2:
        assert not hashlib_loaded


@pytest.mark.parametrize("config, then, added", [
    ("medium='csma_ethernet'", "", {"repro.net.ethernet"}),
    ("medium='acking_ethernet'", "",
     {"repro.net.ethernet", "repro.net.acking_ethernet"}),
    ("gossip=True", "", {"repro.publishing.gossip"}),
    ("recorder_shards=3, placement_policy='replica'", "",
     {"repro.publishing.multi_recorder", "repro.digest"}),
    ("", "import repro.queueing.workload",
     {"repro.queueing", "repro.queueing.workload"}),
    ("", "from repro.cluster import ClusterFederation",
     {"repro.cluster", "repro.cluster.gateways"}),
])
def test_each_configuration_delta_adds_exactly_its_own_modules(
        config, then, added):
    modules, _ = loaded_by(config, then)
    assert set(modules) - DEFAULT_RUN == added
    assert DEFAULT_RUN <= set(modules)


def test_a_lazy_export_loads_its_module_on_first_access():
    loaded = run_fresh(
        "import json, sys\n"
        "from repro.net import CsmaEthernet\n"
        "import repro.queueing\n"
        "model = repro.queueing.OpenQueueingModel\n"
        "from repro.publishing import *\n"
        "from repro.net.ethernet import CsmaEthernet as defined\n"
        "from repro.queueing.model import OpenQueueingModel\n"
        "assert CsmaEthernet is defined and model is OpenQueueingModel\n"
        "print(json.dumps(sorted(m for m in sys.modules if m in (\n"
        "    'repro.net.ethernet', 'repro.queueing.model',\n"
        "    'repro.queueing.solver', 'repro.publishing.gossip'))))\n")
    assert loaded == ["repro.net.ethernet", "repro.publishing.gossip",
                      "repro.queueing.model"]


# Pinned from the hashlib implementation these replaced.
PINNED_SEEDS = [((1983, "ether/3"), 8833765746750221878),
                ((0, "sweep/x"), 1554700699504041522)]
PINNED_DIGEST = ("publishing",
                 "a06dfb75557ac13fc62ce173e68167130251cb1abfd5c39c8dd9443b26b7edc4")


def test_sha256_comes_from_the_builtin_module_where_it_exists():
    assert sha256.__module__ == (BUILTIN_SHA2 or hashlib.sha256.__module__)


def test_seeds_and_digests_are_the_pinned_values():
    for args, seed in PINNED_SEEDS:
        assert derive_seed(*args) == seed
    assert text_digest(PINNED_DIGEST[0]) == PINNED_DIGEST[1]


@given(st.integers(), st.text())
def test_derive_seed_is_the_hashlib_formula(master_seed, name):
    digest = hashlib.sha256(f"{master_seed}/{name}".encode()).digest()
    assert derive_seed(master_seed, name) == int.from_bytes(digest[:8], "big")


def test_an_interpreter_without_builtin_sha2_falls_back_to_hashlib():
    fallback = run_fresh(
        "import json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from repro.digest import text_digest\n"
        "from repro.sim.rng import derive_seed, sha256\n"
        "import hashlib\n"
        "print(json.dumps([sha256 is hashlib.sha256,\n"
        "                  [derive_seed(1983, 'ether/3'),\n"
        "                   derive_seed(0, 'sweep/x')],\n"
        "                  text_digest('publishing')]))\n")
    assert fallback == [True, [seed for _, seed in PINNED_SEEDS],
                        PINNED_DIGEST[1]]
