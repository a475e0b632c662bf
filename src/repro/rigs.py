"""The rig table: every acceptance rig, declared once.

A *rig* is one of the repo's measurement programs — the §5.1 capacity
table, the Figure 5.5 grid, the Figure 5.7 pair, a chaos campaign, the
gossip / adversary / DES / federation acceptance scenarios, the media
storms, the recorder store. :data:`RIGS` declares each once
(:class:`Rig`); what *drives* a rig knows that protocol and not the
rigs: the CLI (one subcommand per entry with a ``render``,
``repro.__main__``), the sweep driver (:func:`run_sweep` — a shard is
one ``run`` call), the determinism gate (``python -m repro facts``:
:func:`facts_report` is every rig's ``facts``, keyed by rig, and
:func:`compare_facts` holds it against ``BENCH_publishing.json``), and
CI with ``tests/test_rigs.py`` (:func:`ci_commands`).

A payload, and a rig's ``facts(seed, smoke)``, is a JSON-able dict of
deterministic facts: no rig reads a clock, so two runs must agree on
``digest_of(payload)``.

Nothing the table imports imports it back at module level:
``runner.execute_task`` looks a rig up when it is called.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.chaos import (
    CHAOS_COUNTER_IMAGE,
    CHAOS_DRIVER_IMAGE,
    ByzantineRecorder,
    ChaosCampaign,
    CrashNode,
    CrashRecorder,
    RestartRecorder,
    expected_total,
    feed_record,
    load_campaign,
    monkey_campaign,
    register_chaos_programs,
    run_quorum_scenario,
    run_scenario,
)
from repro.chaos.campaign import demo_campaign, format_report
from repro.demos.ids import MessageId, ProcessId
from repro.demos.messages import Message
from repro.digest import digest_of, fold, leaf_diff, text_digest
from repro.errors import ReproError
from repro.metrics import measure_send_to_self
from repro.net import MEDIA, build_medium
from repro.net.transport import Transport, TransportConfig
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
from repro.publishing.database import CheckpointEntry, RecorderDatabase
from repro.publishing.disk import DiskArray, PageBuffer
from repro.publishing.store import SegmentedLog
from repro.queueing import (
    OPERATING_POINTS,
    OpenQueueingModel,
    capacity_in_users,
)
from repro.queueing.capacity import bottleneck
from repro.queueing.federation import capacity_section
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.system import System, SystemConfig

#: ``BENCH_publishing.json``'s layout: rig name -> that rig's facts
FACTS_SCHEMA = 2


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
    params: Tuple[Param, ...] = ()
    #: params -> payload; one shard of a sweep is one call; ``None``:
    #: the rig has facts and nothing else
    run: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None
    #: (seed, smoke) -> the facts ``BENCH_publishing.json`` commits under
    #: the rig's name; ``None``: it commits none
    facts: Optional[Callable[[int, bool], Dict[str, Any]]] = None
    #: payload -> terminal text; ``None``: no subcommand
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


class FactDivergence(ReproError):
    """A rig's facts describe a run that failed its own expectation, so
    the determinism gate fails instead of committing them."""


def _gated(label: str, rig: str, sharded: bool = False,
           **params: Any) -> Dict[str, Any]:
    """Rig ``rig``'s report at ``params`` — or, ``sharded``, its grid's
    merged report, run on two workers beside the serial re-run. Raises
    unless every payload passed the rig's own ``ok`` and every shard
    matched its serial digest: no committed leaf describes a run that
    failed or diverged."""
    declared = RIGS[rig]
    if sharded:
        report = run_sweep(rig, max_workers=2, check=True, **params)
        shards = report["shards"]
        failures = list(report["serial_check"]["mismatches"])
    else:
        report = declared(**params)
        shards = [{"name": rig, "payload": report}]
        failures = []
    # the rig's text names what failed: a campaign's broken invariant,
    # each DES run's workers, digest and verdict
    failures += [f"{shard['name']}:\n{declared.render(shard['payload'])}"
                 for shard in shards if not declared.ok(shard["payload"])]
    if failures:
        raise FactDivergence(f"{label}: the {rig} rig's gate failed\n"
                             + "\n".join(failures))
    return report


def _parts(**workloads: Callable[[int, bool], Dict[str, Any]]
           ) -> Callable[[int, bool], Dict[str, Any]]:
    """A rig's facts made of named workloads, each ``(seed, smoke) ->
    dict`` that starts with ``ops``, ``events`` and ``sim_ms``."""
    return lambda seed, smoke: {name: workload(seed, smoke)
                                for name, workload in workloads.items()}


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


def chaos_campaign(seed: int, smoke: bool) -> Dict[str, Any]:
    """The ``chaos`` rig at a seeded monkey campaign against the counter
    workload — the heaviest integration path: faults, retries, replays,
    watchdogs."""
    messages = 10 if smoke else 30
    horizon = 4_000.0 if smoke else 10_000.0
    # A short horizon can cut the campaign right after a late fault;
    # give recoveries room to settle before the invariants are judged.
    payload = _gated("chaos.campaign", "chaos", scenario="monkey",
                     seed=seed, nodes=3, pairs=2, messages=messages,
                     duration_ms=horizon, settle_ms=8_000.0)
    return {
        "ops": 2 * messages,
        "events": payload["events_fired"],
        "sim_ms": payload["sim_ms"],
        "actions": len(payload["report"]["fired"]),
        "recoveries": payload["report"]["figures"]["recoveries_completed"],
    }


def sweep_scaling(seed: int, smoke: bool) -> Dict[str, Any]:
    """The ``chaos`` rig's seed matrix, sharded over two workers beside
    its serial re-run: the two digest chains must be identical and every
    scenario must pass its campaign invariants."""
    runs, messages = (6, 8) if smoke else (16, 12)   # scenarios, per pair
    merged = _gated("chaos.sweep", "chaos", sharded=True, root_seed=seed,
                    runs=runs, pairs=1, messages=messages,
                    duration_ms=2500.0, settle_ms=6000.0)
    payloads = _rows(merged)
    return {
        "ops": runs,
        "events": sum(payload["events_fired"] for payload in payloads),
        # parallel shards overlap in simulated time; report the longest
        "sim_ms": max(payload["sim_ms"] for payload in payloads),
        "sweep_digest": merged["digest"][:16],
    }


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


#: frontier cells: (mode, recording-path loss rate, gossip buffer depth)
_GOSSIP_FULL = (
    ("recorder", 0.0, 0),
    ("recorder", 0.1, 0),
    ("recorder", 0.25, 0),
    ("gossip", 0.1, 128),
    ("gossip", 0.25, 128),
    ("gossip", 0.25, 8),
    ("gossip", 0.4, 128),
)
_GOSSIP_SMOKE = (
    ("recorder", 0.0, 0),
    ("recorder", 0.15, 0),
    ("gossip", 0.15, 64),
    ("gossip", 0.3, 16),
)


def _recorded_set_digest(system) -> int:
    """Order-independent digest of every process's recorded id set —
    the set-convergence contract of docs/GOSSIP.md: a converged
    gossip+loss run matches the lossless recorder-only run on *sets*
    even though repair reordered the arrival interleave."""
    digest = 0
    db = system.recorder.db
    for pid in sorted(db.records):
        record = db.records[pid]
        digest = fold(digest, pid.node * 131 + pid.local * 31 + 7)
        for sender, seq in sorted(record.recorded_ids):
            digest = fold(digest, sender.node * 131 + sender.local * 31 + seq)
    return digest


def gossip_repair(seed: int, smoke: bool) -> Dict[str, Any]:
    """The reliability-vs-overhead frontier of the epidemic repair path
    (docs/GOSSIP.md): the counter workload under seed-pure loss on the
    recording path, repaired by sender retransmission (``recorder``
    cells) or by pull from bounded peer buffers (``gossip`` cells).
    Every cell's recorded-set digest folds into ``replay_digest``."""
    cells = _GOSSIP_SMOKE if smoke else _GOSSIP_FULL
    messages = 8 if smoke else 18
    frontier: List[Dict[str, Any]] = []
    digest = 0
    events = 0
    sim_ms = 0.0
    lossless_digest = None
    for mode, loss_rate, depth in cells:
        config = SystemConfig(
            nodes=2, master_seed=seed, gossip=mode == "gossip",
            gossip_loss_rate=loss_rate, gossip_round_ms=120.0,
            gossip_max_retries=6, gossip_buffer_depth=depth or 256)
        result = run_scenario(
            ChaosCampaign([], name=f"gossip_{mode}_{loss_rate}"), config,
            pairs=1, messages=messages, settle_ms=4000.0)
        if not result.ok:
            raise FactDivergence(
                f"gossip[{mode} loss={loss_rate}]: invariants failed:\n"
                + result.report.format())
        system = result.system
        snap = system.metrics_snapshot()
        retrans = sum(v for k, v in snap.items()
                      if k.startswith("transport.")
                      and k.endswith(".retransmissions"))
        cell_digest = _recorded_set_digest(system)
        digest = fold(digest, cell_digest)
        if mode == "recorder" and loss_rate == 0.0:
            lossless_digest = cell_digest
        gave_up = int(snap.get("gossip.gave_up", 0))
        frontier.append({
            "mode": mode,
            "loss_rate": loss_rate,
            "buffer_depth": depth or 256,
            "retransmissions": int(retrans),
            "receptions_dropped": int(snap.get("gossip.receptions_dropped", 0)),
            "repaired": int(snap.get("gossip.messages_repaired", 0)),
            "pulls_sent": int(snap.get("gossip.pulls_sent", 0)),
            "supplies_received": int(snap.get("gossip.supplies_received", 0)),
            "gave_up": gave_up,
            "set_matches_lossless": (lossless_digest is not None
                                     and cell_digest == lossless_digest),
        })
        if (mode == "gossip" and gave_up == 0
                and lossless_digest is not None
                and cell_digest != lossless_digest):
            raise FactDivergence(
                f"gossip[{mode} loss={loss_rate}]: repair converged "
                f"(gave_up=0) but the recorded set diverged from the "
                f"lossless run")
        events += system.engine.events_fired
        sim_ms += system.engine.now
    return {
        "ops": 2 * messages * len(cells),
        "events": events,
        "sim_ms": round(sim_ms, 6),
        "replay_digest": digest,
        "cells": len(cells),
        "frontier": frontier,
    }


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


def adversary_quorum(seed: int, smoke: bool) -> Dict[str, Any]:
    """Quorum replay against Byzantine recorder logs: each cell feeds one
    message stream into 2f+1 recorder databases, the last ``faulty``
    through a seed-pure ``ByzantineRecorder`` stage, and takes the
    majority vote. The majority must digest to the fault-free state and
    only faulty recorders may be flagged; the flagged set folds into the
    digest too. A final cell is the ``adversary`` rig's own scenario,
    whose engine supplies the event and simulated-time figures."""
    from repro.publishing.multi_recorder import (process_state_digest,
                                                 quorum_replay_stream)

    src, dst = ProcessId(1, 5), ProcessId(2, 9)

    def message(i: int) -> Message:
        return Message(msg_id=MessageId(src, i), src=src, dst=dst,
                       channel=0, code=1, body=("add", i, i * i),
                       size_bytes=24)

    def build(messages: int, stage=None):
        db = RecorderDatabase()
        record = db.create(dst, node=dst.node, image="perf/counter")
        for i in range(1, messages + 1):
            feed_record(record, db, message(i), stage=stage)
        return record

    # (recorders 2f+1, faulty, messages per log)
    cells = (((3, 1, 60), (5, 2, 60)) if smoke else
             ((3, 1, 400), (5, 2, 400), (7, 3, 300), (5, 2, 1200)))
    rows: List[Dict[str, Any]] = []
    digest = 0
    ops = 0
    for index, (recorders, faulty, messages) in enumerate(cells):
        f = (recorders - 1) // 2
        truth = process_state_digest(build(messages).arrivals)
        records = []
        for k in range(recorders):
            stage = None
            if k >= recorders - faulty:
                stage = ByzantineRecorder(
                    random.Random(fold(seed, index * 131 + k)), rate=0.3)
            records.append((90 + k, build(messages, stage)))
        verdict = quorum_replay_stream(records, f=f)
        majority = process_state_digest(verdict.stream)
        flagged = sorted(verdict.divergent)
        honest_flagged = [rid for rid in flagged
                          if rid < 90 + recorders - faulty]
        if faulty <= f and (majority != truth or honest_flagged
                            or verdict.unresolved):
            raise FactDivergence(
                f"adversary[{recorders}r/{faulty}b]: <=f replay "
                f"diverged (digest match {majority == truth}, honest "
                f"flagged {honest_flagged}, unresolved "
                f"{verdict.unresolved})")
        ops += verdict.replayed
        digest = fold(digest, majority)
        for rid in flagged:
            digest = fold(digest, rid)
        digest = fold(digest, verdict.unresolved)
        rows.append({
            "recorders": recorders,
            "faulty": faulty,
            "messages": messages,
            "replayed": verdict.replayed,
            "flagged": flagged,
            "stale_skips": verdict.stale_skips,
            "unresolved": verdict.unresolved,
        })
    rig, report = run_quorum_scenario(f=1, byzantine=1,
                                      messages=8 if smoke else 30,
                                      master_seed=seed)
    if not report["ok"]:
        raise FactDivergence(
            "adversary rig cell: scenario invariants failed "
            f"(total {report['total']} expected {report['expected']}, "
            f"flagged honest {report['flagged_honest']})")
    digest = fold(digest, report["total"])
    for rid in report["outvoted"]:
        digest = fold(digest, rid)
    rows.append({
        "recorders": report["recorders"],
        "faulty": report["byzantine"],
        "messages": report["messages"],
        "replayed": report["messages_replayed"],
        "flagged": list(report["outvoted"]),
        "stale_skips": report["quorum_stale_skips"],
        "unresolved": report["quorum_unresolved"],
        "mode": "rig",
    })
    return {
        "ops": ops + report["messages_replayed"],
        "events": rig.engine.events_fired,
        "sim_ms": round(report["sim_ms"], 6),
        "replay_digest": digest,
        "cells": len(cells) + 1,
        "frontier": rows,
    }


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


_DES_SMOKE = (6, 4, 1500.0)     # clusters, messages, duration_ms
_DES_FULL = (32, 6, 3000.0)
_DES_WORKER_COUNTS = (1, 2, 4)


def _exchange(run: Dict[str, Any]) -> Dict[str, int]:
    """The facts of the promise protocol one pooled run commits."""
    return {key: run[key] for key in ("barriers", "messages_exchanged")}


def parallel_des(seed: int, smoke: bool) -> Dict[str, Any]:
    """The ``des`` rig at one federation, serial against a pool of
    1, 2 and 4 workers (docs/PARALLEL_DES.md): every run's per-cluster
    digests must match, and each worker count's barrier and exchange
    counts are facts of the promise protocol, not of the machine."""
    clusters, messages, duration_ms = _DES_SMOKE if smoke else _DES_FULL
    serial, *pooled = _gated(
        "des.partitioned", "des", clusters=clusters, messages=messages,
        duration_ms=duration_ms, seed=seed,
        des_workers=_DES_WORKER_COUNTS)["runs"]
    return {
        "ops": clusters * messages,     # completed request/reply pairs
        "events": serial["frames_forwarded"],
        "sim_ms": round(serial["sim_ms"], 6),
        "workers": {str(run["workers"]): _exchange(run) for run in pooled},
        "des_digest": serial["digest"][:16],
        "event_digest": serial["digest"],
    }


def des_scaling(seed: int, smoke: bool) -> Dict[str, Any]:
    """The ``des`` rig over a clusters × workers grid with heterogeneous
    per-channel lookaheads: every cell must reproduce the serial digest
    exactly, and its barrier count shows how few grants the promises
    need."""
    cluster_counts, messages, duration_ms, worker_counts = (
        ((6,), 4, 3000.0, (1, 2)) if smoke
        else ((8, 16), 6, 6000.0, (1, 2, 4, 8)))
    grid: Dict[str, Any] = {}
    digests: Dict[str, str] = {}
    events = 0
    for clusters in cluster_counts:
        serial, *pooled = _gated(
            f"des.scaling[{clusters}]", "des", clusters=clusters,
            messages=messages, duration_ms=duration_ms, seed=seed,
            des_workers=worker_counts, spread_delays=True)["runs"]
        events += serial["frames_forwarded"]
        digests[str(clusters)] = serial["digest"]
        grid[str(clusters)] = {str(run["workers"]): {"promise": _exchange(run)}
                               for run in pooled}
    return {
        "ops": sum(cluster_counts) * messages,
        "events": events,
        "sim_ms": round(500.0 + duration_ms, 6),
        "grid": grid,
        "event_digest": digest_of(digests),
    }


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


#: federation_scaling knobs:
#: (cluster counts, cluster_size, recorder_shards, messages, duration_ms)
_FEDERATION_FULL = ((4, 16, 32, 64, 100), 2, 2, 3, 2000.0)
#: smoke still climbs to 64 clusters: the committed curve must keep
#: >=3 cells with the largest federation at planet scale
_FEDERATION_SMOKE = ((4, 16, 64), 2, 2, 3, 2000.0)


def federation_scaling(seed: int, smoke: bool) -> Dict[str, Any]:
    """The ``federation`` rig over the cluster-count curve
    (docs/FEDERATION.md): each cell's serial reference supplies its
    facts and its pooled proof ``pooled_barriers``, and the capacity
    section pairs each topology's modeled knee with the driven
    gateway's measured one."""
    counts, cluster_size, shards, messages, duration_ms = (
        _FEDERATION_SMOKE if smoke else _FEDERATION_FULL)
    report = _gated(
        "federation", "federation", clusters=counts,
        cluster_size=cluster_size, recorder_shards=shards,
        messages=messages, duration_ms=duration_ms, seed=seed)
    cells = report["cells"]
    gateway = report["gateway_knee"]
    capacity = {
        topology: {
            "model": knee,
            "measured_gateway_knee_per_s": gateway["measured_knee_per_s"],
            "modeled_gateway_knee_per_s": gateway["modeled_knee_per_s"],
            "relative_error": gateway.get("relative_error"),
        } for topology, knee in report["capacity"].items()}
    return {
        "ops": sum(cell["clusters"] * messages for cell in cells),
        "events": sum(cell["frames_forwarded"] for cell in cells),
        "sim_ms": round(500.0 + duration_ms, 6),
        "largest_federation": max(counts),
        "grid": {str(cell["clusters"]): {
            "nodes": cell["nodes"],
            "recorder_shards": cell["recorder_shards"],
            "frames_forwarded": cell["frames_forwarded"],
            "dead_letters": cell["dead_letters"],
            "pooled_barriers": cell["pooled_barriers"],
            "digest": cell["digest"][:16],
        } for cell in cells},
        "capacity": capacity,
        "gateway_probes": gateway["probes"],
        "event_digest": digest_of({str(cell["clusters"]): cell["digest"]
                                   for cell in cells}),
    }


# ----------------------------------------------------------------------
# media: one message storm per contending medium model (facts only)
# ----------------------------------------------------------------------
def _storm(medium_name: str, seed: int, smoke: bool) -> Dict[str, Any]:
    """N stations exchange guaranteed messages over one medium model
    until every message is acknowledged and the event heap drains."""
    stations, msgs = 5, 30 if smoke else 240
    engine = Engine()
    rng = RngStreams(seed)
    medium = build_medium(medium_name, engine, rng)
    received: List[Any] = []      # every segment handed up, in order
    config = TransportConfig()
    transports = [Transport(engine, medium, node, received.append, config)
                  for node in range(1, stations + 1)]
    spacing = rng.stream("perf/storm")
    for index, transport in enumerate(transports):
        dst = (index + 1) % stations + 1
        at = 0.0
        for k in range(msgs):
            at += spacing.uniform(0.05, 2.0)
            engine.schedule(at, transport.send, dst, ("m", index, k),
                            128, (index + 1, k))
    engine.run()
    expected = stations * msgs
    if len(received) != expected:
        raise FactDivergence(
            f"media[{medium_name}]: delivered {len(received)} of "
            f"{expected} guaranteed messages")
    return {
        "ops": expected, "events": engine.events_fired,
        "sim_ms": round(engine.now, 6),
        "retransmissions": sum(t.stats.retransmissions.value
                               for t in transports),
        "collisions": medium.stats.collisions.value,
        # rounded in the two steps the committed figures went through
        "utilization": round(
            round(medium.stats.utilization(engine.now), 4), 3),
    }


# ----------------------------------------------------------------------
# store: the recorder's publish + checkpoint + replay pipeline, and its
# log-structured store over a grid (facts only)
# ----------------------------------------------------------------------
def recorder_pipeline(seed: int, smoke: bool) -> Dict[str, Any]:
    """Drive the full publishing path: a counter/driver workload whose
    every message is recorded, then cluster-wide checkpoints, then a
    node crash recovered by replaying the recorded stream."""
    pairs = 2 if smoke else 3
    messages = 12 if smoke else 60
    system = System(SystemConfig(nodes=3, master_seed=seed,
                                 medium="broadcast"))
    register_chaos_programs(system)
    system.boot()
    spawned = []
    for k in range(pairs):
        counter = system.spawn_program(CHAOS_COUNTER_IMAGE, node=2 + k % 2)
        driver = system.spawn_program(
            CHAOS_DRIVER_IMAGE, args=(tuple(counter), messages), node=1)
        spawned.append((driver, counter))

    def drivers_at(count: int) -> bool:
        return all(len(system.program_of(d).replies) >= count
                   for d, _ in spawned)

    phases: Dict[str, Dict[str, Any]] = {}

    def phase(name: str, body: Callable[[], None]) -> None:
        before_events = system.engine.events_fired
        before_ms = system.engine.now
        body()
        phases[name] = {
            "events": system.engine.events_fired - before_events,
            "sim_ms": round(system.engine.now - before_ms, 6),
        }

    def publish_until(count: int) -> None:
        deadline = system.engine.now + 120_000.0
        while not drivers_at(count) and system.engine.now < deadline:
            system.run(250)
        if not drivers_at(count):
            raise FactDivergence("store.pipeline: workload stalled")

    def recovery_phase() -> None:
        # Crash a counter node and let the watchdog notice, the reboot
        # policy restart it, and the recovery manager replay its
        # processes from checkpoint + recorded stream (§3.3, §4.7).
        system.crash_node(2)
        deadline = system.engine.now + 120_000.0
        want = expected_total(messages)
        while system.engine.now < deadline:
            system.run(500)
            programs = [system.program_of(c) for _, c in spawned]
            if all(p is not None and p.total == want for p in programs):
                return
        totals = [p.total if p is not None else -1 for p in programs]
        raise FactDivergence(
            f"store.pipeline: counters ended at {totals}, "
            f"never recovered to {want}")

    # Checkpoint mid-stream so the post-crash recovery genuinely mixes
    # checkpoint restoration with replay of the messages consumed after
    # it — the §3.1 recovery recipe, not a checkpoint-only restore.
    phase("publish", lambda: publish_until(messages // 2))

    checkpoints = {}

    def checkpoint_body() -> None:
        checkpoints["count"] = system.checkpoint_all()
        system.run(1_000)

    phase("checkpoint", checkpoint_body)
    phase("publish_tail", lambda: publish_until(messages))
    phase("replay_recovery", recovery_phase)
    phases["checkpoint"]["checkpoints"] = checkpoints["count"]

    recorder = system.recorder
    return {
        "ops": pairs * messages,
        "events": system.engine.events_fired,
        "sim_ms": round(system.engine.now, 6),
        "phases": phases,
        "messages_recorded": recorder.messages_recorded.value,
        "recoveries": system.recovery.stats.recoveries_completed,
        "messages_replayed": system.recovery.stats.messages_replayed,
    }


#: (processes, messages per process) grid points
_RECORDER_GRID_FULL = ((4, 300), (8, 600), (16, 1200))
_RECORDER_GRID_SMOKE = ((2, 150), (4, 400))

#: post-drain catch-up replay sweeps (a recovery re-walks the log as it
#: catches up with live traffic; see recovery_manager)
_RECORDER_CATCHUP_ROUNDS = 3


def _recorder_script(seed: int, processes: int,
                     messages: int) -> List[Tuple[Any, ...]]:
    """A seeded recorder operation script: per-process arrivals,
    advisories generated against a model queue (so they always match
    the log), cumulative checkpoints, and replay query points
    (``benchmarks/test_recorder_store_scaling.py`` times the same script
    through the flat reference)."""
    rng = random.Random(seed)
    script: List[Tuple[Any, ...]] = []
    queues: List[List[Any]] = [[] for _ in range(processes)]
    consumed = [0] * processes
    controls = [0] * processes
    sent = [0] * processes
    arrived = [0] * processes
    ckpt_every = max(1, messages // 10)   # 10 checkpoints per process
    srcs = [ProcessId(1, 100 + p) for p in range(processes)]
    live = list(range(processes))
    while live:
        p = live[rng.randrange(len(live))]
        if arrived[p] < messages and (rng.random() < 0.55 or not queues[p]):
            # one arrival: mostly queue messages, a few controls
            sent[p] += 1
            arrived[p] += 1
            is_control = rng.random() < 0.05
            msg_id = MessageId(srcs[p], sent[p])
            script.append(("msg", p, msg_id,
                           rng.choice((128, 128, 256, 1024)), is_control))
            if is_control:
                controls[p] += 1
            else:
                queues[p].append(msg_id)
        elif queues[p]:
            # one consumption, out of order (advisory) one time in four
            queue = queues[p]
            if len(queue) >= 2 and rng.random() < 0.25:
                j = rng.randrange(1, min(len(queue), 5))
                script.append(("adv", p, queue[j], queue[0]))
                del queue[j]
            else:
                del queue[0]
            consumed[p] += 1
            if consumed[p] % ckpt_every == 0:
                script.append(("ckpt", p, consumed[p], controls[p]))
                script.append(("query", p, consumed[p]))
        if arrived[p] >= messages and not queues[p]:
            # the process drained: a final checkpoint covers everything
            # consumed, then the catch-up sweeps a recovery would run
            script.append(("ckpt", p, consumed[p], controls[p]))
            for _ in range(_RECORDER_CATCHUP_ROUNDS):
                script.append(("query", p, consumed[p]))
            live.remove(p)
    return script


def _digest_queries(digest: int, replay, ids) -> int:
    """Fold one query point's results into an order-sensitive digest.
    ``replay`` is the replay list (order matters), ``ids`` the consumed
    set — the queue messages checkpoints invalidated so far (folded in
    sorted order)."""
    for lm in replay:
        pid, seq = tuple(lm.message.msg_id)
        digest = fold(digest, pid[0] * 131 + pid[1] * 31 + seq)
    digest = fold(digest, 0x9E37)
    for pid, seq in sorted(tuple(m) for m in ids):
        digest = fold(digest, pid[0] * 131 + pid[1] * 31 + seq)
    return digest


def _drive_segmented(script: List[Tuple[Any, ...]],
                     processes: int) -> Dict[str, Any]:
    """Replay the script through the log-structured store; returns the
    replay digest and the log's storage counters."""
    db = RecorderDatabase(SegmentedLog(64))
    records = [db.create(ProcessId(2, p + 1), node=2, image="bench")
               for p in range(processes)]
    consumed: List[Set[MessageId]] = [set() for _ in range(processes)]
    digest = 0
    for op in script:
        kind, p = op[0], op[1]
        record = records[p]
        if kind == "msg":
            _, _, msg_id, size, is_control = op
            message = Message(msg_id=msg_id, src=msg_id.sender,
                              dst=record.pid, channel=1, code=0, body=None,
                              size_bytes=size, deliver_to_kernel=is_control)
            feed_record(record, db, message)
        elif kind == "adv":
            record.add_advisory(op[2], op[3])
        elif kind == "ckpt":
            live = record.messages_to_replay()
            record.apply_checkpoint(CheckpointEntry(
                data=None, consumed=op[2], dtk_processed=op[3],
                send_seq=0, pages=1, stored_at=0.0))
            consumed[p].update(lm.message.msg_id for lm in live
                               if lm.invalid and not lm.is_control)
        else:   # query: a checkpoint at the same count came first
            digest = _digest_queries(digest, record.messages_to_replay(),
                                     consumed[p])
    return {"digest": digest, "log_bytes": db.log.log_bytes,
            "live_bytes": db.log.live_bytes,
            "compactions": db.log.compactions,
            "segments_retired": db.log.segments_retired,
            "segments": db.log.segments}


def _page_buffer_contrast(sizes: List[int]
                          ) -> Tuple[Dict[str, Any], int, float]:
    """The §5.1 batching contrast on the engine wheel: the same message
    byte stream through per-message writes, fill-triggered group commit,
    and group commit with a flush deadline. Returns each mode's counters,
    the engine events fired and the longest simulated time."""
    out: Dict[str, Any] = {}
    events, sim_ms = 0, 0.0
    for mode, buffered, deadline in (("unbatched", False, None),
                                     ("batched", True, None),
                                     ("batched_deadline", True, 5.0)):
        engine = Engine()
        disks = DiskArray(engine, 1)
        buffer = PageBuffer(disks, buffered=buffered,
                            flush_deadline_ms=deadline)
        at = 0.0
        for size in sizes:
            at += 0.7
            engine.schedule(at, buffer.add, size)
        engine.run()
        buffer.flush()
        events += engine.events_fired
        sim_ms = max(sim_ms, engine.now)
        out[mode] = {
            "disk_writes": disks.writes,
            "disk_reads": disks.reads,
            "pages_flushed": buffer.pages_flushed,
            "deadline_flushes": buffer.deadline_flushes,
        }
    return out, events, sim_ms


def recorder_scaling(seed: int, smoke: bool) -> Dict[str, Any]:
    """The log-structured recorder store over a processes × message-rate
    grid, plus the batched vs unbatched disk-path contrast. The replay
    order and consumed-id set at every query point fold into
    ``replay_digest``."""
    grid = _RECORDER_GRID_SMOKE if smoke else _RECORDER_GRID_FULL
    grid_out: Dict[str, Dict[str, Any]] = {}
    total_messages = 0
    digest = 0
    for processes, messages in grid:
        script = _recorder_script(seed + processes, processes, messages)
        seg = _drive_segmented(script, processes)
        total_messages += processes * messages
        digest = fold(digest, seg.pop("digest"))
        grid_out[f"{processes}x{messages}"] = seg
    rng = random.Random(seed ^ 0x5D15)
    contrast, events, sim_ms = _page_buffer_contrast(
        [rng.choice((128, 128, 256, 1024)) for _ in range(512)])
    return {
        "ops": total_messages,
        "events": events,
        "sim_ms": round(sim_ms, 6),
        "grid": grid_out,
        "page_buffer": contrast,
        "replay_digest": digest,
    }


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
        facts=_parts(campaign=chaos_campaign, sweep=sweep_scaling),
        render=lambda payload: format_report(payload["report"]),
        ci=("--seed", "1983", "--messages", "25", "--verify-determinism"),
        ci_grid=("--runs", "6", "--messages", "10", "--duration", "3000")),
    Rig("gossip", "epidemic-repair acceptance scenario: recorder outage "
                  "mid-traffic, holes healed by peer pull "
                  "(docs/GOSSIP.md)",
        params=(_SEED, Param("nodes", 2), _MESSAGES,
                Param("outage", 1200.0,
                      "recorder outage length (simulated ms)"),
                Param("no_contrast", False,
                      "skip the gossip-off contrast arm")),
        run=run_gossip, render=render_gossip, replay=True,
        facts=gossip_repair,
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
        facts=adversary_quorum,
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
        facts=_parts(partitioned=parallel_des, scaling=des_scaling),
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
        facts=federation_scaling,
        ci=("--clusters", "4", "--clusters", "8")),
    # the same storm over the contending CSMA/CD Ethernet (§6.1.1), the
    # Acknowledging Ethernet's reserved slots, the token ring (§6.1.2)
    Rig("media", "guaranteed-message storms over three medium models",
        facts=_parts(**{medium: partial(_storm, medium) for medium in (
            "csma_ethernet", "acking_ethernet", "token_ring")})),
    Rig("store", "the recorder's publish/checkpoint/replay pipeline and "
                 "its log-structured store",
        facts=_parts(pipeline=recorder_pipeline, scaling=recorder_scaling)),
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


def facts_report(seed: int = 1983, smoke: bool = False,
                 names: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """The named rigs' facts in ``BENCH_publishing.json``'s layout —
    every rig that has facts, in table order, when ``names`` is empty."""
    known = [name for name, rig in RIGS.items() if rig.facts]
    unknown = [name for name in names or () if name not in known]
    if unknown:
        raise ReproError(f"unknown rig(s): {', '.join(unknown)}\n"
                         f"available: {', '.join(known)}")
    return {"schema_version": FACTS_SCHEMA,
            "meta": {"seed": seed, "mode": "smoke" if smoke else "full"},
            "rigs": {name: RIGS[name].facts(seed, smoke)
                     for name in names or known}}


def compare_facts(current: Dict[str, Any], committed: Dict[str, Any],
                  selected: bool = False) -> List[str]:
    """Exact comparison: one ``rig.key: committed -> current`` line per
    differing leaf, empty when ``current`` reproduces ``committed``. A
    rig on one side only is a difference too, except, for a
    ``selected`` run, a committed rig it did not run."""
    failures = [line for key in ("schema_version", "meta")
                for line in leaf_diff(key, committed.get(key), current[key])]
    ran, kept = current["rigs"], committed.get("rigs", {})
    for name in dict.fromkeys([*ran, *(() if selected else kept)]):
        if name not in kept:
            failures.append(f"{name}: not in the committed file")
        elif name not in ran:
            failures.append(f"{name}: committed, but not run")
        else:
            failures += leaf_diff(name, kept[name], ran[name])
    return failures
