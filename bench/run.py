"""The repo's benchmark: publish path and recovery path, end to end and
layer by layer.

    python3 bench/run.py                      # all six workloads, untraced
    python3 bench/run.py --trace              # per-layer: profile, counts, probes
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --repeat-check       # two sets, compared to the bounds

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``). Without it every workload runs in a fresh
subprocess of its own. See ``bench/README.md``.
"""

import time

STARTED = time.perf_counter()       # set-up time runs from here

import argparse                     # noqa: E402
import cProfile                     # noqa: E402
import gc                           # noqa: E402
import heapq                        # noqa: E402
import json                         # noqa: E402
import os                           # noqa: E402
import platform                     # noqa: E402
import pstats                       # noqa: E402
import resource                     # noqa: E402
import statistics                   # noqa: E402
import subprocess                   # noqa: E402
import sys                          # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers                       # noqa: E402
import probes                       # noqa: E402
import workloads                    # noqa: E402

IMPORT_S = time.perf_counter() - STARTED

DEFAULT_SEED = 1983
#: timed passes when no ``--seconds`` budget is given
FIXED_PASSES = 5
#: fewest timed passes a host median is taken over
MIN_PASSES = 3
WARMUP_SCALE = 0.25
TRACE_SCALE = 0.5
REPORT_PREFIX = "# report "

#: (name, unit, host or sim, better, bound between two sets of the same
#: code). A host bound is a share of the first set's value; ``setup_s``
#: may also move 0.1 s. ``ops_per_s`` has none: the shared bench box
#: drifts by more than any useful bound within minutes, so it is
#: reported and ``ops_per_kiter``, its drift-cancelled form, is gated.
#: Simulated facts repeat bit for bit, so any difference between two
#: sets of the same code is a failure, and between two commits it is a
#: modelling change.
END_TO_END = (
    ("setup_s", "s", "host", "lower", 0.25),
    ("ops_per_s", "1/s", "host", "higher", None),
    ("ops_per_kiter", "1/kiter", "host", "higher", 0.15),
    ("peak_rss_mb", "MiB", "host", "lower", 0.10),
    ("sim_ms_per_op", "sim_ms", "sim", "lower", 0.0),
    ("sim_latency_ms_p50", "sim_ms", "sim", "lower", 0.0),
    ("sim_latency_ms_p90", "sim_ms", "sim", "lower", 0.0),
    ("sim_latency_ms_p99", "sim_ms", "sim", "lower", 0.0),
    ("fail_ratio", "ratio", "sim", "lower", 0.0),
)
HOST = tuple(name for name, _, kind, _, _ in END_TO_END if kind == "host")
SIM = tuple(name for name, _, kind, _, _ in END_TO_END if kind == "sim")
#: the simulated times, which the traced run reports as well
SIM_TIMES = SIM[:-1]
SETUP_SLACK_S = 0.1
#: a p99 needs ten samples beyond it
P99_MIN_SAMPLES = 1000
PAPER_RECORDER_CPU_MS = 0.8         # §5.2.2, media-tap path


class BenchError(Exception):
    """The benchmark itself failed (not the system under test)."""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def calibration_rate(seconds=0.1):
    """Iterations per second of a fixed pure-Python loop (heap, dict,
    tuple, repr and encode work, like the simulator's own mix but none
    of its code): a yardstick for how fast this machine is right now."""
    done, started = 0, time.perf_counter()
    while time.perf_counter() - started < seconds:
        heap, table, x = [], {}, 1
        for i in range(1000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, (x, i, (i, x)))
            table[i & 255] = repr((i, x)).encode()
        while heap:
            heapq.heappop(heap)
        done += 1000
    return done / (time.perf_counter() - started)


def machine_meta():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def timed_pass(spec, inputs, profile=None):
    """Build, drive, verify. Returns (set-up s, timed s, facts)."""
    gc.collect()
    t0 = time.perf_counter()
    world = workloads.World(spec, inputs)
    t1 = time.perf_counter()
    if profile is not None:
        profile.enable()
    world.drive()
    if profile is not None:
        profile.disable()
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, workloads.collect(world)


def import_seconds(repeats=4):
    """Median import time of this interpreter and ``repeats`` fresh
    ones: one measurement per run is too noisy to gate set-up on."""
    samples = [IMPORT_S]
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--import-time"],
            stdout=subprocess.PIPE, text=True, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def first_difference(a, b, path=""):
    """The name of the first field two fact dicts disagree on."""
    for key in a:
        if isinstance(a[key], dict):
            found = first_difference(a[key], b[key], f"{path}{key}.")
            if found:
                return found
        elif a[key] != b[key]:
            return f"{path}{key} ({a[key]!r} != {b[key]!r})"
    return None


def run_untraced(spec, seed, seconds):
    """Warm-up, then timed passes; host medians and the simulated facts."""
    t0 = time.perf_counter()
    inputs = workloads.make_inputs(spec, seed)
    inputs_s = time.perf_counter() - t0
    timed_pass(spec, workloads.make_inputs(spec, seed, WARMUP_SCALE))
    passes, loop_started = [], time.perf_counter()
    machine = [calibration_rate()]
    while True:
        passes.append(timed_pass(spec, inputs))
        machine.append(calibration_rate())
        if seconds is None:
            if len(passes) == FIXED_PASSES:
                break
        elif (len(passes) >= MIN_PASSES
              and time.perf_counter() - loop_started >= seconds):
            break
    facts = passes[0][2]
    for number, (_, _, other) in enumerate(passes[1:], start=2):
        field = first_difference(facts, other)
        if field:
            raise BenchError(
                f"{spec.name}: simulated fact {field} differs between "
                f"pass 1 and pass {number}; the run is not deterministic")
    fixed_s = import_seconds() + inputs_s
    setups = [fixed_s + setup for setup, _, _ in passes]
    rates = [facts["ops"] / timed for _, timed, _ in passes]
    # ops in the time this machine takes for 1000 calibration
    # iterations: machine speed drifts by tens of percent over minutes
    # on a shared box, and the loop measured beside each pass drifts
    # with it
    kiter_per_s = statistics.median(machine) / 1000.0
    host = {
        "setup_s": setups,
        "ops_per_s": rates,
        "ops_per_kiter": [rate / kiter_per_s for rate in rates],
        "peak_rss_mb": [resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    report = {
        "workload": spec.name, "seed": seed, "passes": len(passes),
        "clients": spec.pairs, "facts": facts,
        "host": {name: {"median": statistics.median(values),
                        "q1": quartiles(values)[0],
                        "q3": quartiles(values)[1], "n": len(values)}
                 for name, values in host.items()},
        "calibration_iter_per_s": statistics.median(machine),
    }
    return report


def end_to_end_values(report):
    """Every end-to-end metric of an untraced report."""
    facts = report["facts"]
    values = {name: report["host"][name]["median"] for name in HOST}
    for name in SIM:
        values[name] = facts.get(name)
    if facts["samples"] < P99_MIN_SAMPLES:
        values["sim_latency_ms_p99"] = None
    values["fail_ratio"] = facts["failed"] / facts["attempted"]
    return values


def run_traced(spec, seed, probe_budget_s, ratio_repeats):
    """One untraced pass for the counts, one half-size pass under
    cProfile for the layer split, then the direct-call probes."""
    timed_pass(spec, workloads.make_inputs(spec, seed, WARMUP_SCALE))
    _, plain_s, facts = timed_pass(spec, workloads.make_inputs(spec, seed))
    profile = cProfile.Profile()
    _, traced_s, traced = timed_pass(
        spec, workloads.make_inputs(spec, seed, TRACE_SCALE), profile)
    billed = layers.self_seconds(pstats.Stats(profile))
    total = sum(billed.values())
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_share"] = billed[layer] / total
        metrics[f"{layer}.self_us_per_op"] = (
            billed[layer] * 1e6 / traced["ops"])
    metrics["trace.overhead_ratio"] = (
        (traced_s / traced["ops"]) / (plain_s / facts["ops"]))
    metrics["untraced.ops_per_s"] = facts["ops"] / plain_s
    metrics["sim.events_per_s"] = facts["events"] / plain_s
    metrics.update(facts["counts"])
    metrics.update(probes.run_all(seed, probe_budget_s, ratio_repeats))
    for name in SIM_TIMES:
        metrics[name] = facts[name]
    return {"workload": spec.name, "seed": seed, "facts": facts,
            "traced_facts": {k: traced[k] for k in ("ops", "failed",
                                                    "attempted")},
            "per_layer": metrics, "cpu_count": os.cpu_count()}


# ----------------------------------------------------------------------
# the per-layer metric table, for BENCHMARK.json and the printed tables
# ----------------------------------------------------------------------
def per_layer_table():
    """(name, unit, which direction is better) of every per-layer
    metric, in reporting order."""
    table = []
    for layer in layers.LAYERS:
        table += [(f"{layer}.self_share", "ratio", "lower"),
                  (f"{layer}.self_us_per_op", "us", "lower")]
    table += [("trace.overhead_ratio", "ratio", "lower"),
              ("untraced.ops_per_s", "1/s", "higher"),
              ("sim.events_per_s", "1/s", "higher")]
    table += workloads.COUNTS
    table += probes.METRICS
    table += [(name, unit, better) for name, unit, _, better, _
              in END_TO_END if name in SIM_TIMES]
    return table


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def fmt(value):
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_untraced(report):
    facts, values = report["facts"], end_to_end_values(report)
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"{report['clients']} closed-loop clients  "
          f"{facts['ops']} ops/pass  {report['passes']} timed passes")
    for name, unit, kind, better, _ in END_TO_END:
        line = f"  {name:<22}{fmt(values[name]):>12} {unit:<8}{kind:<5}"
        if kind == "host":
            stat = report["host"][name]
            line += (f" q1 {fmt(stat['q1'])} q3 {fmt(stat['q3'])} "
                     f"n={stat['n']}")
        elif "latency" in name:
            line += f" samples={facts['samples']}"
            if values[name] is None:
                line += f" (< {P99_MIN_SAMPLES}: no p99)"
        elif name == "fail_ratio":
            line += f" failed {facts['failed']} of {facts['attempted']}"
        print(line + f"  ({better} is better)")
    print(f"  sim facts identical across {report['passes']} passes: "
          f"events={facts['events']} sim_ms={fmt(facts['sim_ms'])}")


def print_traced(report):
    metrics = report["per_layer"]
    print(f"== {report['workload']}  seed {report['seed']}  traced "
          f"(half size, cProfile)  cpu_count={report['cpu_count']}")
    print(f"  {'layer':<22}{'self_share':>12}{'self_us_per_op':>16}")
    for layer in layers.LAYERS:
        print(f"  {layer:<22}{metrics[layer + '.self_share']:>12.4f}"
              f"{metrics[layer + '.self_us_per_op']:>16.3f}")
    for name, unit, _ in per_layer_table()[2 * len(layers.LAYERS):]:
        line = f"  {name:<46}{fmt(metrics[name]):>14} {unit}"
        if name == "publishing.recorder.cpu_ms_per_msg" and metrics[name]:
            error = metrics[name] / PAPER_RECORDER_CPU_MS - 1.0
            line += f"  (paper 0.8: {error:+.2%})"
        if name == "parallel.probe.pooled_vs_serial" and metrics[name]:
            if metrics[name] < 1.0:
                line += "  (< 1: the pool is SLOWER than one process)"
        if metrics[name] is None:
            line += "  (probe target missing)"
        print(line)


def result_line(report, trace, declared):
    """The contract's last line: the metrics BENCHMARK.json declares."""
    facts = report["facts"]
    if trace:
        values = report["per_layer"]
        unit_of = {name: unit for name, unit, _ in per_layer_table()}.get
    else:
        values = end_to_end_values(report)
        unit_of = {name: unit for name, unit, _, _, _ in END_TO_END}.get
    metrics = {}
    for name in declared:
        value = values[name]
        # a removed probe target measures nothing; the line stays numeric
        metrics[name] = {"value": 0.0 if value is None else value,
                         "unit": unit_of(name)}
    passes = report.get("passes", 1)
    traced = report.get("traced_facts", {"attempted": 0, "failed": 0})
    failed = facts["failed"] * passes + traced["failed"]
    return {"correct": failed == 0,
            "attempted": facts["attempted"] * passes + traced["attempted"],
            "failed": failed,
            "metrics": metrics}


def declared_metrics(trace):
    """The metric names BENCHMARK.json lists for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        manifest = json.load(handle)
    return [m["name"] for m in manifest["per_layer" if trace
                                       else "end_to_end"]]


def child_main(args):
    spec = workloads.BY_NAME[args.workload]
    if args.trace:
        # a time budget shrinks the probes with it: they are the same
        # on every workload, and a driver runs each workload traced
        if args.seconds is None:
            report = run_traced(spec, args.seed, 0.2, 5)
        else:
            report = run_traced(spec, args.seed, args.seconds * 0.006, 2)
        print_traced(report)
    else:
        report = run_untraced(spec, args.seed, args.seconds)
        print_untraced(report)
    print(REPORT_PREFIX + json.dumps(report))
    line = result_line(report, args.trace, declared_metrics(args.trace))
    print(json.dumps(line))
    return 0


# ----------------------------------------------------------------------
# every workload, one fresh subprocess each
# ----------------------------------------------------------------------
def run_set(seed, seconds, trace):
    """Run all six workloads; returns {workload: report}."""
    reports = {}
    for spec in workloads.SPECS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", spec.name, "--seed", str(seed),
                   "--trace", str(int(trace))]
        if seconds is not None:
            command += ["--seconds", str(seconds)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        for line in done.stdout.splitlines():
            if line.startswith(REPORT_PREFIX):
                reports[spec.name] = json.loads(line[len(REPORT_PREFIX):])
            elif line and not line.startswith("{"):
                print(line)
        if done.returncode != 0 or spec.name not in reports:
            raise BenchError(f"{spec.name} failed (exit {done.returncode})")
        sys.stdout.flush()
    return reports


def within_bound(name, first, second):
    """(relative difference, bound, ok) for one metric of two sets."""
    _, _, kind, _, bound = next(m for m in END_TO_END if m[0] == name)
    if first == second:
        return 0.0, bound, True
    if kind == "sim" or first is None or second is None:
        return float("inf"), bound, False
    difference = abs(second - first) / abs(first)
    ok = (bound is None or difference <= bound
          or (name == "setup_s" and abs(second - first) <= SETUP_SLACK_S))
    return difference, bound, ok


def repeat_check(seed, seconds):
    """Two back-to-back untraced sets of the same code must agree."""
    meta = machine_meta()
    meta["calibration_before"] = calibration_rate(1.0)
    first = run_set(seed, seconds, trace=False)
    meta["calibration_between"] = calibration_rate(1.0)
    second = run_set(seed, seconds, trace=False)
    meta["calibration_after"] = calibration_rate(1.0)
    print("\nrepeat check: set 1 vs set 2")
    bad = 0
    for spec in workloads.SPECS:
        a = end_to_end_values(first[spec.name])
        b = end_to_end_values(second[spec.name])
        for name, unit, _, _, _ in END_TO_END:
            difference, bound, ok = within_bound(name, a[name], b[name])
            bad += not ok
            gate = "not gated" if bound is None else f"bound {bound:.1%}"
            print(f"  {spec.name:<18}{name:<22}{fmt(a[name]):>12}"
                  f"{fmt(b[name]):>12} {unit:<8}"
                  f"diff {difference:>7.2%}  {gate}  "
                  f"{'ok' if ok else 'OUT OF BOUND'}")
    print("meta " + json.dumps(meta))
    return 1 if bad else 0


def baseline_document(seed, untraced, traced):
    document = {"seed": seed, "meta": machine_meta(),
                "calibration_iter_per_s": calibration_rate(1.0),
                "workloads": {}}
    for spec in workloads.SPECS:
        entry = {"clients": spec.pairs, "round_trips": spec.round_trips}
        if untraced:
            report = untraced[spec.name]
            entry["end_to_end"] = end_to_end_values(report)
            entry["host_spread"] = report["host"]
            entry["passes"] = report["passes"]
            entry["sim_facts"] = report["facts"]
        if traced:
            entry["per_layer"] = traced[spec.name]["per_layer"]
        document["workloads"][spec.name] = entry
    return document


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for about this long instead of "
                             f"{FIXED_PASSES} passes")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--import-time", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-baseline", action="store_true",
                        help="run untraced and traced and record both in "
                             "bench/BASELINE.json")
    args = parser.parse_args(argv)
    if args.import_time:
        print(IMPORT_S)
        return 0
    try:
        if args.workload:
            return child_main(args)
        if args.repeat_check:
            return repeat_check(args.seed, args.seconds)
        if args.write_baseline:
            document = baseline_document(
                args.seed, run_set(args.seed, args.seconds, trace=False),
                run_set(args.seed, args.seconds, trace=True))
            with open(os.path.join(HERE, "BASELINE.json"), "w") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
                handle.write("\n")
            return 0
        run_set(args.seed, args.seconds, trace=bool(args.trace))
        return 0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
