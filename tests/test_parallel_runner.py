"""The multi-core sweep runner: seed derivation, scheduling, and the
serial-vs-parallel determinism guarantee (see docs/PERFORMANCE.md).

The load-bearing test here is the 9-point chaos sweep run both serially
and on 3 workers: per-shard digests, the merged report JSON and shard
ordering must all be identical — a shard record is pure facts — which
is the contract ``sweep --parallel`` relies on.
"""

import json

import pytest

from repro.errors import ReproError
from repro.parallel import (
    execute_task,
    make_task,
    run_tasks,
    shard_seed,
    sweep_digest,
    verify_parallel,
)
from repro.rigs import (
    capacity_tasks,
    chaos_matrix_tasks,
    run_sweep,
    utilization_tasks,
)
from repro.sim.rng import RngStreams, derive_seed


# ----------------------------------------------------------------------
# the digest encodings (repro.digest), pinned by values computed before
# they were gathered there — not by BENCH_publishing.json alone
# ----------------------------------------------------------------------
def test_literal_values_pin_each_digest_encoding():
    from types import SimpleNamespace

    from repro.demos.ids import MessageId, ProcessId
    from repro.demos.messages import Message
    from repro.digest import canonical_json, digest_of
    from repro.publishing.multi_recorder import process_state_digest

    obj = {"b": [1, 2.5, None, True], "a": {"z": "é", "y": 0}}
    assert canonical_json(obj) == (
        '{"a":{"y":0,"z":"\\u00e9"},"b":[1,2.5,null,true]}')
    assert digest_of(obj) == ("c595c61f41578ad8c03f781b9ab44e48"
                              "e3189159333bc7d6eab20a41cfe186f8")
    # sha-256 of a text: the chain of two shard digests
    assert sweep_digest([{"digest": "aa"}, {"digest": "bb"}]) == (
        "80c0d5c7137871baa75af2038f350bf60a4d45a131a653d0eb93f3cda3d28609")

    src, dst = ProcessId(1, 5), ProcessId(2, 9)

    def logged(seq, marker=False, invalid=False):
        message = Message(msg_id=MessageId(src, seq), src=src, dst=dst,
                          channel=0, code=1, body=("add", seq),
                          size_bytes=24, recovery_marker=marker)
        return SimpleNamespace(message=message, is_marker=marker,
                               invalid=invalid)

    # the fold: three messages (past the modulus), order-sensitive, a
    # marker and an invalid record skipped
    assert process_state_digest(
        [logged(1), logged(2, marker=True), logged(3),
         logged(4, invalid=True), logged(5)]) == 480458094417928604
    assert process_state_digest(
        [logged(5), logged(3), logged(1)]) == 334958682900272130


# ----------------------------------------------------------------------
# seed derivation
# ----------------------------------------------------------------------
class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_seed(1983, "a") == derive_seed(1983, "a")
        assert shard_seed(1983, "chaos/000") == shard_seed(1983, "chaos/000")

    def test_name_and_root_dependent(self):
        assert derive_seed(1983, "a") != derive_seed(1983, "b")
        assert derive_seed(1983, "a") != derive_seed(1984, "a")

    def test_matches_rng_stream_seeding(self):
        """RngStreams and derive_seed must agree — a shard seeded with
        derive_seed(root, name) sees the stream RngStreams(root) would
        hand out for the same name."""
        stream = RngStreams(7).stream("x")
        import random
        assert random.Random(derive_seed(7, "x")).random() == stream.random()

    def test_task_seeds_are_order_independent(self):
        """The 5th shard of a 9-task matrix has the same seed as the
        5th shard of a 5-task matrix: derivation is by name only."""
        nine = chaos_matrix_tasks(seed=11, runs=9)
        five = chaos_matrix_tasks(seed=11, runs=5)
        assert dict(nine[4].params)["seed"] == dict(five[4].params)["seed"]


# ----------------------------------------------------------------------
# scheduling and merge mechanics
# ----------------------------------------------------------------------
class TestRunTasks:
    def test_order_preserved_under_chunking(self):
        """15 grid cells, 3 workers, tiny chunks: the merge must come
        back in task order regardless of completion order."""
        tasks = utilization_tasks(point="mean")
        shards = run_tasks(tasks, max_workers=3, chunk_size=2)
        assert [s["name"] for s in shards] == [t.name for t in tasks]

    def test_duplicate_names_rejected(self):
        task = make_task("utilization", "dup", point="mean", disks=1, nodes=1)
        with pytest.raises(ReproError):
            run_tasks([task, task], max_workers=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            execute_task(make_task("no_such_kind", "x"))

    def test_shard_digest_covers_payload_not_timing(self):
        task = capacity_tasks(points=["mean"])[0]
        first = execute_task(task)
        second = execute_task(task)
        # a shard record is pure facts: no timing rides along, so two
        # executions are equal record for record
        assert first == second
        assert set(first) == {"kind", "name", "params", "payload", "digest"}


# ----------------------------------------------------------------------
# the determinism guarantee (satellite: 9-point sweep, 3 workers)
# ----------------------------------------------------------------------
class TestSerialParallelEquality:
    def test_nine_point_chaos_sweep_matches_serial(self):
        tasks = chaos_matrix_tasks(seed=1983, runs=9, pairs=1,
                                   messages=8, duration_ms=2500.0)
        serial = run_tasks(tasks, max_workers=1)
        parallel = run_tasks(tasks, max_workers=3)
        # ordering
        assert [s["name"] for s in parallel] == [t.name for t in tasks]
        assert [s["name"] for s in serial] == [s["name"] for s in parallel]
        # per-shard digests
        assert [s["digest"] for s in serial] \
            == [s["digest"] for s in parallel]
        # the merged report JSON must be bit-identical
        from repro.parallel import merge_results
        assert json.dumps(merge_results(serial), sort_keys=True) \
            == json.dumps(merge_results(parallel), sort_keys=True)
        # and the event streams inside really were exercised
        assert all(s["payload"]["events_fired"] > 0 for s in parallel)
        assert sweep_digest(serial) == sweep_digest(parallel)

    def test_verify_parallel_reports_no_mismatches(self):
        tasks = capacity_tasks(disks=(1, 2))
        shards, mismatches = verify_parallel(tasks, max_workers=2)
        assert mismatches == []
        assert len(shards) == len(tasks)

    def test_run_sweep_check_gate(self):
        merged = run_sweep("utilization", max_workers=2, check=True,
                           point="mean")
        assert merged["serial_check"]["matches"]
        assert merged["serial_check"]["mismatches"] == []
        assert merged["count"] == 15
        assert merged["digest"] == merged["serial_check"]["serial_digest"]

    def test_chaos_shard_payload_is_deterministic(self):
        """A chaos shard — the kind ``sweep --kind chaos`` runs — gives
        the same whole record, digest included, when one process runs it
        twice: no state of one run leaks into the next."""
        task = chaos_matrix_tasks(seed=1983, runs=1, pairs=1,
                                  messages=8, duration_ms=2500.0)[0]
        first = execute_task(task)
        assert first["payload"]["events_fired"] > 0
        assert execute_task(task) == first


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestSweepCli:
    def test_sweep_capacity_check_json(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main
        out = tmp_path / "sweep.json"
        assert cli_main(["sweep", "--kind", "capacity", "--parallel", "2",
                         "--check", "--output", str(out)]) == 0
        merged = json.loads(out.read_text())
        assert merged["count"] == 4
        assert merged["serial_check"]["matches"]
        assert "MATCH" in capsys.readouterr().out

    def test_chaos_runs_matrix_exit_code(self, tmp_path):
        from repro.__main__ import main as cli_main
        out = tmp_path / "matrix.json"
        assert cli_main(["sweep", "--kind", "chaos", "--runs", "3",
                         "--parallel", "2", "--messages", "8",
                         "--duration", "2000", "--json",
                         "--output", str(out)]) == 0
        matrix = json.loads(out.read_text())
        assert matrix["count"] == 3 and matrix["ok"]
        assert all(s["payload"]["ok"] for s in matrix["shards"])
