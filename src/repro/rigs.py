"""The rig table: every acceptance rig, declared once.

A *rig* is one of the repo's measurement programs — the §5.1 capacity
table, the Figure 5.5 grid, the Figure 5.7 pair, a chaos campaign, the
gossip / adversary / DES / federation acceptance scenarios, a perf
workload. :data:`RIGS` declares each once (:class:`Rig`); what *drives*
a rig knows that protocol and not the rigs: the CLI (one subcommand per
entry, ``repro.__main__``), the sweep driver (:func:`run_sweep` — a
shard is one ``run`` call), the determinism gate
(``repro.perf.workloads._gated`` commits leaves of the ``chaos`` /
``des`` / ``federation`` payloads), and CI with ``tests/test_rigs.py``
(:func:`ci_commands`).

A payload is a JSON-able dict of deterministic facts: no rig reads a
clock, so two runs must agree on ``digest_of(payload)``.

Nothing the table imports imports it back at module level:
``runner.execute_task`` and the gate look a rig up when they are called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chaos import (
    ChaosCampaign,
    CrashNode,
    CrashRecorder,
    RestartRecorder,
    load_campaign,
    monkey_campaign,
    run_quorum_scenario,
    run_scenario,
)
from repro.chaos.campaign import demo_campaign, format_report
from repro.digest import text_digest
from repro.errors import ReproError
from repro.metrics import measure_send_to_self
from repro.net import MEDIA
from repro.parallel.des import (
    DesScenario,
    equivalence_report,
    spread_forward_delays,
)
from repro.parallel.runner import (
    ShardTask,
    make_task,
    merge_results,
    run_tasks,
    shard_seed,
    verify_parallel,
)
from repro.perf.harness import run_workload, selected
from repro.queueing import (
    OPERATING_POINTS,
    OpenQueueingModel,
    capacity_in_users,
)
from repro.queueing.capacity import bottleneck
from repro.queueing.federation import capacity_section
from repro.sim.rng import RngStreams
from repro.system import SystemConfig


@dataclass(frozen=True)
class Param:
    """One parameter of a rig: at once the key ``run`` reads, the shard
    parameter, the grid builder's keyword and the CLI flag."""

    name: str
    #: what ``run`` gets when the flag is absent. A grid builder's
    #: signature states its own (a matrix cell is a smaller operating
    #: point than a single run): a sweep passes on only the flags given.
    default: Any = None
    help: str = ""
    #: CLI spelling where it is not ``--name`` with dashes
    flag: Optional[str] = None
    choices: Optional[Sequence[str]] = None
    #: str -> value; default: the type of ``default``, else ``str``
    parse: Optional[Callable[[str], Any]] = None
    #: the flag may be repeated; the value is the list
    repeat: bool = False
    #: ``"run"``: the subcommand only; ``"grid"``: the sweep only
    on: str = "both"


@dataclass(frozen=True)
class Rig:
    name: str
    help: str
    params: Tuple[Param, ...]
    #: params -> payload; one shard of a sweep is one call
    run: Callable[[Dict[str, Any]], Dict[str, Any]]
    #: payload -> terminal text; ``None``: no subcommand (sweep only)
    render: Optional[Callable[[Dict[str, Any]], str]] = None
    #: payload -> did the rig's acceptance condition hold
    ok: Callable[[Dict[str, Any]], bool] = lambda payload: payload.get(
        "ok", True)
    #: grid builder: keywords named after params -> shard tasks
    grid: Optional[Callable[..., List[ShardTask]]] = None
    #: the unit is one grid cell, so the subcommand runs the whole grid
    #: (one worker) and ``render`` gets the merged sweep report
    table: bool = False
    #: the payload carries ``event_digest`` (sha-256 of the event stream),
    #: so equal payload digests prove a bit-identical replay: the rig
    #: takes ``--verify-determinism``
    replay: bool = False
    #: argv of the rig's CI cell, after the subcommand / after
    #: ``sweep --kind <name>``
    ci: Tuple[str, ...] = ()
    ci_grid: Tuple[str, ...] = ()

    def __call__(self, **overrides: Any) -> Dict[str, Any]:
        """The rig's report at the declared defaults, with ``overrides``:
        one ``run`` — for a table rig, its grid on one worker."""
        params = {p.name: p.default for p in self.params if p.on != "grid"}
        params.update(overrides)
        if self.table:
            return run_sweep(self.name, max_workers=1, **params)
        return self.run(params)


def _csv(kind: Callable[[str], Any]) -> Callable[[str], Tuple[Any, ...]]:
    return lambda text: tuple(kind(part.strip())
                              for part in text.split(",") if part.strip())


def _rows(merged: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [shard["payload"] for shard in merged["shards"]]


# ----------------------------------------------------------------------
# queueing tables: §5.1 capacity, Figure 5.5 utilization, Figure 5.7
# ----------------------------------------------------------------------
def run_capacity(params: Dict[str, Any]) -> Dict[str, Any]:
    """One §5.1 capacity probe: max users for an operating point."""
    point = OPERATING_POINTS[params["point"]]
    disks, buffered = params["disks"], params["buffered"]
    users = capacity_in_users(point, disks=disks, buffered=buffered)
    return {
        "point": params["point"],
        "users": users,
        "nodes": round(users / point.users_per_node, 6),
        "bottleneck": bottleneck(point, users, disks=disks,
                                 buffered=buffered),
    }


def capacity_tasks(points: Optional[Iterable[str]] = None,
                   disks: Sequence[int] = (1,),
                   buffered: bool = True) -> List[ShardTask]:
    """One capacity probe per (operating point, disk count)."""
    names = sorted(points) if points else sorted(OPERATING_POINTS)
    unknown = [p for p in names if p not in OPERATING_POINTS]
    if unknown:
        raise ReproError(f"unknown operating point(s): {unknown}")
    return [make_task("capacity", f"capacity/{point}/disks{d}",
                      point=point, disks=d, buffered=buffered)
            for point in names for d in disks]


def render_capacity(merged: Dict[str, Any]) -> str:
    lines = [f"{'operating point':<18} {'max users':>9} {'nodes':>6} "
             f"{'bottleneck':>10}"]
    for p in _rows(merged):
        lines.append(f"{p['point']:<18} {p['users']:>9} {p['nodes']:>6.2f} "
                     f"{p['bottleneck']:>10}")
    return "\n".join(lines)


def run_utilization(params: Dict[str, Any]) -> Dict[str, Any]:
    """One Figure 5.5 grid cell: station utilizations at a
    (point, disks, nodes) configuration."""
    model = OpenQueueingModel(point=OPERATING_POINTS[params["point"]],
                              nodes=params["nodes"], disks=params["disks"])
    return {
        "point": params["point"],
        "nodes": params["nodes"],
        "disks": params["disks"],
        "utilizations": {k: round(v, 9)
                         for k, v in model.utilizations().items()},
        "stable": model.stable(),
    }


def utilization_tasks(point: str = "mean",
                      disks: Sequence[int] = (1, 2, 3),
                      nodes: Sequence[int] = (1, 2, 3, 4, 5)
                      ) -> List[ShardTask]:
    """The Figure 5.5 grid for one operating point."""
    return [make_task("utilization", f"utilization/{point}/d{d}n{n}",
                      point=point, disks=d, nodes=n)
            for d in disks for n in nodes]


def render_utilization(merged: Dict[str, Any]) -> str:
    rows = _rows(merged)
    point = rows[0]["point"]
    lines = [f"operating point: {point} "
             f"({OPERATING_POINTS[point].users_per_node} users/node)",
             f"{'disks':>5} {'nodes':>5} {'network':>8} {'cpu':>8} "
             f"{'disk':>8}"]
    for p in rows:
        u = p["utilizations"]
        flag = "  SATURATED" if not p["stable"] else ""
        lines.append(
            f"{p['disks']:>5} {p['nodes']:>5} {100 * u['network']:>7.1f}% "
            f"{100 * u['cpu']:>7.1f}% {100 * u['disk']:>7.1f}%{flag}")
    return "\n".join(lines)


def run_figure57(params: Dict[str, Any]) -> Dict[str, Any]:
    """One Figure 5.7 measurement (with or without publishing). All
    figures are simulated time, so the payload is fully deterministic."""
    measured = measure_send_to_self(publishing=params["publishing"],
                                    iterations=params["iterations"])
    return {key: round(value, 9) for key, value in measured.items()}


def figure57_tasks(iterations: int = 256) -> List[ShardTask]:
    """The Figure 5.7 pair: with and without publishing."""
    return [make_task("figure57", f"figure57/{label}",
                      publishing=publishing, iterations=iterations)
            for label, publishing in (("publishing", True),
                                      ("bare", False))]


def render_figure57(merged: Dict[str, Any]) -> str:
    return "\n".join(
        f"{label}: real {r['real_ms_per_iter']:6.2f} ms/iter, "
        f"kernel CPU {r['kernel_cpu_ms_per_iter']:6.2f} ms/iter"
        for label, r in zip(("with publishing   ", "without publishing"),
                            _rows(merged)))


# ----------------------------------------------------------------------
# chaos: one seeded fault campaign; its grid is the seed matrix
# ----------------------------------------------------------------------
def run_chaos(params: Dict[str, Any]) -> Dict[str, Any]:
    """One fault campaign against the counter/driver workload: an
    explicit spec (dict or JSON file), the fixed demo campaign, or —
    what a seed-matrix cell runs — the monkey its seed determines."""
    seed, nodes = params["seed"], params["nodes"]
    if params["campaign"] is not None:
        campaign = load_campaign(params["campaign"])
    elif params.get("scenario") == "demo":
        campaign = demo_campaign(nodes)
    else:
        campaign = monkey_campaign(RngStreams(seed),
                                   list(range(1, nodes + 1)),
                                   duration_ms=params["duration_ms"])
    if params.get("save_campaign"):
        campaign.save(params["save_campaign"])
    # a matrix cell carries its builder's settle time; a single run
    # takes run_scenario's
    settle = ({"settle_ms": params["settle_ms"]}
              if "settle_ms" in params else {})
    config = SystemConfig(nodes=nodes, master_seed=seed,
                          medium=params["medium"], checkpoint_policy="storage")
    result = run_scenario(campaign, config, pairs=params["pairs"],
                          messages=params["messages"], **settle)
    return {
        "ok": result.ok,
        "totals": result.totals,
        "expected": result.expected,
        "report": result.report.to_dict(),
        "events_fired": result.system.engine.events_fired,
        "sim_ms": round(result.system.engine.now, 6),
        "event_digest": text_digest(result.event_stream()),
    }


def chaos_matrix_tasks(root_seed: int = 1983, runs: int = 9,
                       nodes: int = 3, pairs: int = 2, messages: int = 20,
                       medium: str = "broadcast",
                       duration_ms: float = 4000.0,
                       settle_ms: float = 6000.0,
                       campaign: Any = None) -> List[ShardTask]:
    """``runs`` seeded chaos scenarios. Every shard's master seed is
    ``shard_seed(root_seed, name)`` — pure name derivation, so the
    matrix lands on identical seeds however it is scheduled. With a
    ``campaign`` (spec dict or file) the same campaign replays under
    each derived seed's workload; without one each shard runs its own
    monkey."""
    return [make_task("chaos", name, seed=shard_seed(root_seed, name),
                      nodes=nodes, pairs=pairs, messages=messages,
                      medium=medium, duration_ms=duration_ms,
                      settle_ms=settle_ms, campaign=campaign)
            for name in (f"chaos/{k:03d}" for k in range(runs))]


# ----------------------------------------------------------------------
# gossip: the epidemic-repair acceptance scenario (docs/GOSSIP.md)
# ----------------------------------------------------------------------
def run_gossip(params: Dict[str, Any]) -> Dict[str, Any]:
    """Crash the recorder mid-traffic, restart it into a log with
    holes, then crash a counter node so recovery must replay across the
    gap. With gossip the holes heal by peer pull and the workload lands
    exactly; the contrast arm (same faults, gossip off, tight retry
    budget) dead-letters instead — the reliability gap the repair path
    closes."""
    outage, nodes = params["outage"], params["nodes"]

    def arm(gossip: bool):
        # Traffic spans roughly 0.7-2.8 s simulated; the outage window
        # sits inside it and the node crash lands after the restart.
        campaign = ChaosCampaign(
            [CrashRecorder(1000.0), RestartRecorder(1000.0 + outage),
             CrashNode(1000.0 + outage + 1400.0, node=nodes)],
            name="gossip_repair")
        # Node recovery replays the whole log through the recorder's
        # disk path; give the settle phase room for it.
        config = SystemConfig(nodes=nodes, master_seed=params["seed"],
                              checkpoint_policy="storage", gossip=gossip,
                              transport_max_retries=6)
        return run_scenario(campaign, config, pairs=1,
                            messages=params["messages"], settle_ms=8000.0)

    result = arm(True)
    payload = result.report.to_dict()
    payload.update(
        totals=result.totals, expected_total=result.expected,
        gossip={key.split(".", 1)[1]: value for key, value
                in sorted(result.system.metrics_snapshot().items())
                if key.startswith("gossip.")},
        event_digest=text_digest(result.event_stream()))
    if not params["no_contrast"]:
        contrast = arm(False)
        payload["contrast"] = {
            "ok": contrast.ok,
            "totals": contrast.totals,
            "dead_letters": len(contrast.system.dead_letters),
        }
    return payload


def render_gossip(payload: Dict[str, Any]) -> str:
    gossip = payload["gossip"]
    lines = [format_report(payload),
             f"  gossip: flagged={gossip.get('gaps_flagged', 0)} "
             f"repaired={gossip.get('messages_repaired', 0)} "
             f"rounds={gossip.get('rounds', 0)} "
             f"gave_up={gossip.get('gave_up', 0)}"]
    contrast = payload.get("contrast")
    if contrast is not None:
        lines.append(
            f"  without gossip: ok={contrast['ok']} "
            f"dead_letters={contrast['dead_letters']} "
            f"totals={contrast['totals']} "
            f"(expected {payload['expected_total']})")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# adversary: the Byzantine-recorder quorum scenario (docs/ADVERSARY.md)
# ----------------------------------------------------------------------
def run_adversary(params: Dict[str, Any]) -> Dict[str, Any]:
    """A 2f+1 recorder cluster acknowledges all traffic; mid-run the
    last ``byzantine`` recorders turn Byzantine, then the counter's node
    crashes so recovery must replay through the cross-recorder vote.
    With ``byzantine <= f`` the run must land exactly and flag only the
    faulty recorders; beyond f the corruption must be *detected* —
    divergence or unresolved-vote events, never a silent wrong total."""
    system, report = run_quorum_scenario(
        f=params["f"], byzantine=params["byzantine"],
        messages=params["messages"], master_seed=params["seed"],
        modes=tuple(params["modes"]), rate=params["rate"],
        equivocate=params["equivocate"])
    return dict(report, event_digest=text_digest(system.obs.bus.to_jsonl()))


def render_adversary(r: Dict[str, Any]) -> str:
    lines = [
        f"adversary quorum — {'PASS' if r['ok'] else 'FAIL'} "
        f"(f={r['f']}, {r['byzantine']}/{r['recorders']} byzantine, "
        f"seed {r['seed']})",
        f"  workload: total={r['total']} expected={r['expected']} "
        f"exact={r['exact']}",
        f"  faults injected: {r['faults_injected']} "
        f"(modes {','.join(r['modes'])} at rate {r['rate']})",
        f"  quorum: replays={r['quorum_replays']} "
        f"divergences={r['quorum_divergences']} "
        f"unresolved={r['quorum_unresolved']} "
        f"outvoted={r['outvoted']}",
    ]
    if r["flagged_honest"]:
        lines.append(f"  FLAGGED HONEST RECORDERS: {r['flagged_honest']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# des / federation: one federation, serial reference vs pooled proof
# ----------------------------------------------------------------------
def run_des(params: Dict[str, Any]) -> Dict[str, Any]:
    """One federation run serially and on a process pool per worker
    count; the payload is :func:`~repro.parallel.des.equivalence_report`
    — the one pooled-vs-serial gate."""
    scenario = DesScenario(
        clusters=params["clusters"], cluster_size=params["cluster_size"],
        recorder_shards=params.get("recorder_shards", 1),
        messages=params["messages"], duration_ms=params["duration_ms"],
        topology=params["topology"], master_seed=params["seed"],
        forward_delays=(spread_forward_delays(params["clusters"])
                        if params["spread_delays"] else None))
    return equivalence_report(scenario,
                              worker_counts=tuple(params["des_workers"]))


def render_des(report: Dict[str, Any]) -> str:
    scenario = report["scenario"]
    lines = [f"parallel DES: {scenario['clusters']} clusters "
             f"({scenario['topology']}), {scenario['messages']} msg/driver, "
             f"{scenario['duration_ms']:.0f}ms sim"]
    for run in report["runs"]:
        label = run["mode"]
        if run["partitions"]:
            label += f"({run['partitions']})"
        lines.append(
            f"  {label:<12} digest {run['digest'][:16]} "
            f"barriers {run['barriers']:<6} "
            f"workload {'ok' if run['workload_ok'] else 'INCOMPLETE'}")
    lines.append("equivalence: "
                 + ("byte-identical across all runs"
                    if report["equivalent"] else "DIVERGED"))
    return "\n".join(lines)


def run_federation(params: Dict[str, Any]) -> Dict[str, Any]:
    """The ``des`` rig over cluster counts with sharded recorders — per
    cell one serial reference and one pooled proof that must agree
    digest-for-digest — plus the capacity model's knee paired with a
    driven gateway's measured saturation rate."""
    counts = sorted(set(params["clusters"]))
    shards = params["recorder_shards"]
    cells = []
    for clusters in counts:
        report = RIGS["des"](
            clusters=clusters, cluster_size=params["cluster_size"],
            recorder_shards=shards, messages=params["messages"],
            duration_ms=params["duration_ms"], topology=params["topology"],
            seed=params["seed"], des_workers=(params["workers"],))
        serial, pooled = report["runs"]
        cells.append({
            "clusters": clusters,
            "nodes": clusters * params["cluster_size"],
            "recorder_shards": shards,
            "digest": serial["digest"],
            "pooled_digest": pooled["digest"],
            "digests_match": not report["mismatches"],
            "workload_ok": serial["workload_ok"] and pooled["workload_ok"],
            "frames_forwarded": serial["frames_forwarded"],
            "dead_letters": serial["dead_letters"],
            "pooled_barriers": pooled["barriers"],
        })
    capacity, gateway = capacity_section(
        max(max(counts), 2), shards, params["service_ms"])
    return {
        "topology": params["topology"],
        "cells": cells,
        "capacity": capacity,
        "gateway_knee": gateway,
        "ok": all(cell["digests_match"] and cell["workload_ok"]
                  for cell in cells),
    }


def render_federation(report: Dict[str, Any]) -> str:
    cells = report["cells"]
    lines = [f"federation scaling ({report['topology']}, "
             f"{cells[0]['recorder_shards']} recorder shard(s)/cluster):"]
    for cell in cells:
        verdict = ("MATCH" if cell["digests_match"]
                   else f"DIVERGED (pooled {cell['pooled_digest'][:16]})")
        lines.append(
            f"  {cell['clusters']:>4} clusters "
            f"digest {cell['digest'][:16]} "
            f"pooled barriers {cell['pooled_barriers']:<5} {verdict}"
            + ("" if cell["workload_ok"] else " workload INCOMPLETE"))
    for topology, knee in report["capacity"].items():
        lines.append(f"  capacity[{topology}]: knee {knee['knee_users']} "
                     f"users, bottleneck {knee['bottleneck']}")
    gateway = report["gateway_knee"]
    err = gateway.get("relative_error")
    lines.append(
        f"  gateway knee: modeled {gateway['modeled_knee_per_s']:.0f}/s "
        f"measured {gateway['measured_knee_per_s']}/s "
        f"relative error {err if err is not None else 'n/a'}")
    lines.append(f"result: {'PASS' if report['ok'] else 'FAIL'}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# perf: one determinism workload per shard (sweep only: the subcommand
# is repro.perf.harness, which owns --compare)
# ----------------------------------------------------------------------
def perf_tasks(names: Optional[Sequence[str]] = None, seed: int = 1983,
               smoke: bool = True) -> List[ShardTask]:
    """One shard per determinism workload (suite order preserved); a
    shard is one :func:`~repro.perf.harness.run_workload` call, every
    fact it reports digested."""
    return [make_task("perf", f"perf/{name}", workload=name, seed=seed,
                      smoke=smoke)
            for name in selected(names)]


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
_SEED = Param("seed", 1983, "master seed")
_MESSAGES = Param("messages", 30, "request/reply round trips")
_TOPOLOGY = Param("topology", "ring", choices=("ring", "mesh"))
_DURATION_HELP = "simulated run length after settle (ms)"

#: rig name -> declaration; also the shard kinds ``execute_task``
#: dispatches through (rebuilt on import in every worker process)
RIGS: Dict[str, Rig] = {rig.name: rig for rig in (
    Rig("capacity", "§5.1 capacity table", table=True,
        params=(Param("disks", parse=_csv(int), on="grid",
                      help="comma-separated disk counts"),),
        run=run_capacity, render=render_capacity, grid=capacity_tasks),
    Rig("utilization", "Figure 5.5 sweep", table=True,
        params=(Param("point", "mean", "operating point",
                      choices=sorted(OPERATING_POINTS)),),
        run=run_utilization, render=render_utilization,
        grid=utilization_tasks),
    Rig("figure57", "Figure 5.7 measurement", table=True,
        params=(Param("iterations", parse=int, on="grid",
                      help="send-to-self iterations"),),
        run=run_figure57, render=render_figure57, grid=figure57_tasks),
    Rig("chaos", "run a fault campaign and print the report",
        params=(
            Param("scenario", "demo", choices=("demo", "monkey"), on="run",
                  help="demo: one fixed fault of each kind; monkey: "
                       "seed-determined random campaign"),
            Param("campaign", flag="--file",
                  help="load the campaign from this JSON file (overrides "
                       "--scenario; a sweep replays it in every shard "
                       "instead of per-shard monkeys)"),
            Param("seed", 1983, on="run",
                  help="master seed (drives both the workload and the "
                       "monkey)"),
            Param("root_seed", flag="--seed", parse=int, on="grid",
                  help="root seed: each shard's master seed derives "
                       "from it by shard name"),
            Param("runs", parse=int, on="grid",
                  help="scenarios in the seed matrix"),
            Param("nodes", 3),
            Param("pairs", 3, "counter/driver pairs in the workload"),
            Param("messages", 40, "request/reply round trips per pair"),
            Param("medium", "broadcast", choices=tuple(MEDIA)),
            Param("duration_ms", 10_000.0, flag="--duration",
                  help="monkey campaign horizon (simulated ms)"),
            Param("save_campaign", on="run",
                  help="also write the campaign's action list to this "
                       "JSON file")),
        run=run_chaos, grid=chaos_matrix_tasks, replay=True,
        render=lambda payload: format_report(payload["report"]),
        ci=("--seed", "1983", "--messages", "25", "--verify-determinism"),
        ci_grid=("--runs", "6", "--messages", "10", "--duration", "3000")),
    Rig("perf", "one determinism workload per shard",
        params=(Param("names", flag="--workload", repeat=True, on="grid",
                      help="only this workload"),
                Param("seed", parse=int, on="grid",
                      help="master seed for every workload"),
                Param("smoke", False, "smoke-size workloads", on="grid")),
        run=lambda params: run_workload(**params), grid=perf_tasks,
        ci_grid=("--smoke", "--workload", "engine_churn",
                 "--workload", "storm_token_ring")),
    Rig("gossip", "epidemic-repair acceptance scenario: recorder outage "
                  "mid-traffic, holes healed by peer pull "
                  "(docs/GOSSIP.md)",
        params=(_SEED, Param("nodes", 2), _MESSAGES,
                Param("outage", 1200.0,
                      "recorder outage length (simulated ms)"),
                Param("no_contrast", False,
                      "skip the gossip-off contrast arm")),
        run=run_gossip, render=render_gossip, replay=True,
        ci=("--verify-determinism",)),
    Rig("adversary", "Byzantine-recorder quorum acceptance scenario: "
                     "2f+1 recorders outvote faulty logs during replay "
                     "(docs/ADVERSARY.md)",
        params=(_SEED,
                Param("f", 1, "fault tolerance: 2f+1 recorders run"),
                Param("byzantine", 1, "how many recorders turn Byzantine"),
                _MESSAGES,
                Param("modes", ("drop", "corrupt", "duplicate", "reorder"),
                      parse=_csv(str),
                      help="comma-separated Byzantine fault modes"),
                Param("rate", 0.3, "per-record fault probability"),
                Param("equivocate", False,
                      "faulty recorders also log shared divergent "
                      "payloads")),
        run=run_adversary, render=render_adversary, replay=True,
        ci=("--verify-determinism",)),
    Rig("des", "run one federation serially and on a process pool "
               "(conservative parallel DES) and compare digests",
        params=(Param("clusters", 8, "clusters in the federation"),
                Param("cluster_size", 1, "nodes per cluster"),
                Param("messages", 6, "request/reply pairs per driver"),
                Param("duration_ms", 3000.0, _DURATION_HELP,
                      flag="--duration"),
                _TOPOLOGY, _SEED,
                Param("des_workers", (2,), parse=int, repeat=True,
                      help="pool worker count to test (default 2)"),
                Param("spread_delays", False,
                      "assign heterogeneous per-edge gateway delays "
                      "instead of one uniform lookahead")),
        run=run_des, render=render_des,
        ok=lambda report: report["equivalent"],
        ci=("--clusters", "6", "--messages", "4", "--duration", "1500",
            "--des-workers", "2", "--spread-delays")),
    Rig("federation", "sharded-recorder federation scaling cells, each "
                      "digest-gated serial vs pooled, and the "
                      "capacity-model knee (docs/FEDERATION.md)",
        params=(Param("clusters", (4, 8), parse=int, repeat=True,
                      help="cluster count to run (default 4 and 8)"),
                Param("cluster_size", 2, "nodes per cluster"),
                Param("recorder_shards", 2, "recorder shards per cluster",
                      flag="--shards"),
                _TOPOLOGY,
                Param("messages", 3, "request/reply pairs per driver"),
                Param("duration_ms", 2000.0, _DURATION_HELP,
                      flag="--duration"),
                _SEED,
                Param("workers", 2, "worker processes of the pooled proof"),
                Param("service_ms", 2.0,
                      "gateway uplink serialisation time for the capacity "
                      "section")),
        run=run_federation, render=render_federation,
        ci=("--clusters", "4", "--clusters", "8")),
)}


def ci_commands() -> List[Tuple[str, List[str]]]:
    """``(report name, argv)`` of every rig's CI cell: its subcommand
    at ``ci`` and its grid at ``ci_grid``, sharded over two workers
    with the serial check. ``tests/test_rigs.py`` runs each in-process
    on every interpreter; CI loops over them to write the artifacts."""
    rigs = RIGS.values()
    return ([(rig.name, [rig.name, *rig.ci]) for rig in rigs if rig.render]
            + [(f"sweep_{rig.name}",
                ["sweep", "--kind", rig.name, *rig.ci_grid,
                 "--parallel", "2", "--check"])
               for rig in rigs if rig.grid])


def run_sweep(kind: str, max_workers: Optional[int] = None,
              chunk_size: Optional[int] = None, check: bool = False,
              **grid_params: Any) -> Dict[str, Any]:
    """Build and execute one rig's grid; returns the merged report.
    With ``check=True`` it also runs serially (``verify_parallel``) and
    ``serial_check`` records whether every shard digest matched, in
    order — the gate for scheduler determinism."""
    rig = RIGS.get(kind)
    if rig is None or rig.grid is None:
        known = sorted(name for name, r in RIGS.items() if r.grid)
        raise ReproError(f"unknown sweep kind {kind!r} "
                         f"(known: {', '.join(known)})")
    tasks = rig.grid(**grid_params)
    if check:
        shards, mismatches = verify_parallel(tasks, max_workers, chunk_size)
    else:
        shards = run_tasks(tasks, max_workers, chunk_size)
    merged = merge_results(shards, sweep=kind, workers=max_workers)
    if check:
        merged["serial_check"] = {
            "matches": not mismatches,
            # all matched, in order: the serial run's chain is this one;
            # otherwise ``mismatches`` names each shard and both digests
            "serial_digest": None if mismatches else merged["digest"],
            "mismatches": mismatches,
        }
    return merged
