"""Checks of the benchmark itself. Not part of tier-1:

    python -m pytest bench/ -q
"""

import cProfile
import json
import os
import pstats
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import layers       # noqa: E402
import probes       # noqa: E402
import run          # noqa: E402
import workloads    # noqa: E402

TINY = 0.04


@pytest.mark.parametrize("spec", workloads.SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", [1983, 7])
def test_tiny_workload_completes_without_failures(spec, seed):
    _, _, facts = run.timed_pass(
        spec, workloads.make_inputs(spec, seed, TINY))
    assert facts["attempted"] > 0
    assert facts["ops"] == facts["attempted"]
    assert facts["failed"] == 0
    assert tuple(facts["counts"]) == tuple(
        name for name, _, _ in workloads.COUNTS)


def test_wrong_server_state_fails_every_op_of_that_server():
    spec = workloads.BY_NAME["publish_steady"]
    world = workloads.World(spec, workloads.make_inputs(spec, 7, TINY))
    world.drive()
    system, pid = world.servers[0]
    system.program_of(pid).total += 1
    facts = workloads.collect(world)
    assert facts["wrong_server_states"] == 1
    assert facts["failed"] == len(world.inputs.plans[0])


def test_simulated_facts_repeat_and_differences_are_named():
    spec = workloads.BY_NAME["publish_contended"]
    inputs = workloads.make_inputs(spec, 7, TINY)
    first = run.timed_pass(spec, inputs)[2]
    second = run.timed_pass(spec, inputs)[2]
    assert run.first_difference(first, second) is None
    second["counts"]["net.faults.losses"] += 1
    assert run.first_difference(first, second).startswith(
        "counts.net.faults.losses")


# -- layer attribution ---------------------------------------------------
def _synthetic_stats():
    """A hand-built profile: an engine function (0.5 s self) calls
    heappush (0.3 s); a frames function (0.1 s) calls repr (0.2 s),
    which calls a builtin of its own (0.1 s); an orphan builtin
    (0.05 s) has no caller at all."""
    engine = ("/x/src/repro/sim/engine.py", 10, "run")
    frames = ("/x/src/repro/net/frames.py", 20, "canonical_bytes")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    reprfn = ("~", 0, "<built-in method builtins.repr>")
    inner = ("~", 0, "<method '__repr__' of 'tuple' objects>")
    orphan = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = pstats.Stats.__new__(pstats.Stats)
    stats.stats = {
        engine: (1, 1, 0.5, 0.8, {}),
        frames: (1, 1, 0.1, 0.4, {}),
        heappush: (5, 5, 0.3, 0.3, {engine: (5, 5, 0.3, 0.3)}),
        reprfn: (2, 2, 0.2, 0.3, {frames: (2, 2, 0.2, 0.3)}),
        inner: (2, 2, 0.1, 0.1, {reprfn: (2, 2, 0.1, 0.1)}),
        orphan: (1, 1, 0.05, 0.05, {}),
    }
    return stats


def test_builtin_time_is_billed_to_the_calling_layer():
    billed = layers.self_seconds(_synthetic_stats())
    assert billed["sim"] == pytest.approx(0.8)
    assert billed["net.frames"] == pytest.approx(0.4)
    assert billed["other"] == pytest.approx(0.05)
    assert sum(billed.values()) == pytest.approx(1.25)


def test_layer_shares_sum_to_one_and_match_raw_profile_top_three():
    spec = workloads.BY_NAME["publish_steady"]
    profile = cProfile.Profile()
    run.timed_pass(spec, workloads.make_inputs(spec, 7, 0.1), profile)
    stats = pstats.Stats(profile)
    billed = layers.self_seconds(stats)
    total = sum(entry[2] for entry in stats.stats.values())
    assert sum(billed.values()) / total == pytest.approx(1.0, abs=0.01)
    raw = {}
    for (filename, _, _), entry in stats.stats.items():
        layer = layers.layer_of(filename)
        if layer is not None:
            raw[layer] = raw.get(layer, 0.0) + entry[2]
    assert (sorted(billed, key=billed.get, reverse=True)[:3]
            == sorted(raw, key=raw.get, reverse=True)[:3])


# -- probes ----------------------------------------------------------------
def test_probe_with_missing_target_reports_none(capsys):
    def gone():
        from repro.sim import engine
        return probes.measure(engine.no_such_scheduler, 0.01)
    assert probes.guarded("sim.probe.gone", gone) is None
    assert "sim.probe.gone has no target" in capsys.readouterr().err


def test_every_probe_measures_something():
    results = probes.run_all(7, 0.005, 1)
    assert tuple(results) == tuple(name for name, _, _ in probes.METRICS)
    assert all(value is not None and value > 0 for value in results.values())


# -- the manifest ------------------------------------------------------------
def test_manifest_lists_what_the_benchmark_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == [
        spec.name for spec in workloads.SPECS]
    ours = {name: (unit, better)
            for name, unit, _, better, _ in run.END_TO_END}
    for metric in manifest["end_to_end"]:
        assert ours[metric["name"]] == (metric["unit"], metric["better"])
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == [
        tuple(row) for row in run.per_layer_table()]
