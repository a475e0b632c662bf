"""The rig table: every acceptance rig, declared once.

A *rig* is one of the repo's measurement programs — the §5.1 capacity
table, the Figure 5.5 grid, the Figure 5.7 pair, a chaos campaign, the
gossip / adversary / DES / federation acceptance scenarios, the media
storms, the recorder pipeline and store. :data:`RIGS` declares each
once (:class:`Rig`): its parameters and its one scenario, ``run(params)
-> payload``. A payload is a JSON-able dict of deterministic facts with
an ``ok`` verdict: no rig reads a clock, so two runs must agree on
``digest_of(payload)``.

What *drives* a rig knows that protocol and not the rigs: the CLI (one
subcommand per rig, ``repro.__main__``, which prints any payload with
:func:`render`), the sweep driver (:func:`run_sweep` — a shard is one
``run`` call), the determinism gate (``python -m repro facts``:
:func:`facts_report` is every rig at its ``smoke`` parameters, and
:func:`compare_facts` holds it against ``BENCH_publishing.json``), and
CI with ``tests/test_rigs.py`` (:func:`ci_commands`). So a rig's
subcommand at its smoke flags prints exactly the leaves the gate pins.

Nothing the table imports imports it back at module level:
``runner.execute_task`` looks a rig up when it is called.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.chaos import (
    CHAOS_COUNTER_IMAGE,
    CHAOS_DRIVER_IMAGE,
    ChaosCampaign,
    ScenarioResult,
    expected_total,
    feed_record,
    monkey_campaign,
    register_chaos_programs,
    run_quorum_scenario,
    run_scenario,
)
from repro.chaos.campaign import demo_campaign
from repro.demos.ids import MessageId, ProcessId
from repro.demos.messages import Message
from repro.digest import fold, leaf_diff, leaves, text_digest
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

#: ``BENCH_publishing.json``'s layout: rig name -> that rig's payload
FACTS_SCHEMA = 3


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

    @property
    def option(self) -> str:
        """The CLI flag."""
        return self.flag or "--" + self.name.replace("_", "-")


@dataclass(frozen=True)
class Rig:
    name: str
    help: str
    params: Tuple[Param, ...]
    #: params -> payload: the rig's one scenario; one shard of a sweep
    #: is one call
    run: Callable[[Dict[str, Any]], Dict[str, Any]]
    #: the parameter overrides the determinism gate pins; the full size
    #: is the declared defaults, which nothing commits
    smoke: Mapping[str, Any] = field(default_factory=dict)
    #: grid builder: keywords named after params -> shard tasks
    grid: Optional[Callable[..., List[ShardTask]]] = None
    #: ``run`` is one grid cell, so the rig's payload is its whole grid
    #: (run in this process), each cell under its shard name
    table: bool = False
    #: argv of the rig's sweep CI cell, after ``sweep --kind <name>``
    ci_grid: Tuple[str, ...] = ()

    def __call__(self, **overrides: Any) -> Dict[str, Any]:
        """The rig's payload at the declared defaults, with
        ``overrides``, as its JSON reads (tuples come back as lists) and
        with its ``ok`` verdict (true where ``run`` states none)."""
        params = {p.name: p.default for p in self.params if p.on != "grid"}
        params.update(overrides)
        if self.table:
            payload = {"cells": {task.name: self.run(dict(task.params))
                                 for task in self.grid(**params)}}
        else:
            payload = self.run(params)
        return json.loads(json.dumps(dict(payload,
                                          ok=payload.get("ok", True))))


def _csv(kind: Callable[[str], Any]) -> Callable[[str], Tuple[Any, ...]]:
    return lambda text: tuple(kind(part.strip())
                              for part in text.split(",") if part.strip())


class FactDivergence(ReproError):
    """A rig's payload at its smoke parameters failed its own ``ok``, so
    the determinism gate fails instead of committing it."""


def render(payload: Dict[str, Any]) -> str:
    """Any payload for the terminal: one ``path value`` line per leaf,
    each path as :func:`~repro.digest.leaf_diff` names it, then the
    verdict."""
    return "\n".join([f"{path} {json.dumps(value)}"
                      for path, value in leaves(payload)]
                     + [f"result: {'PASS' if payload['ok'] else 'FAIL'}"])


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


def run_figure57(params: Dict[str, Any]) -> Dict[str, Any]:
    """One Figure 5.7 measurement (with or without publishing). All
    figures are simulated time, so the payload is fully deterministic."""
    measured = measure_send_to_self(publishing=params["publishing"],
                                    iterations=params["iterations"])
    return {key: round(value, 9) for key, value in measured.items()}


def figure57_tasks(iterations: int = 512) -> List[ShardTask]:
    """The Figure 5.7 pair: with and without publishing, at the
    thesis's 512 iterations of the Figure 5.6 program."""
    return [make_task("figure57", f"figure57/{label}",
                      publishing=publishing, iterations=iterations)
            for label, publishing in (("publishing", True),
                                      ("bare", False))]


# ----------------------------------------------------------------------
# chaos: one seeded fault campaign; its grid is the seed matrix
# ----------------------------------------------------------------------
#: simulated ms a chaos run settles after its campaign's last action
#: before the invariants are judged: a short horizon can cut a campaign
#: right after a late fault (ROADMAP item 16 replaces the fixed tail)
CHAOS_SETTLE_MS = 8_000.0


def run_chaos(params: Dict[str, Any]) -> Dict[str, Any]:
    """One fault campaign against the counter/driver workload: the
    fixed demo campaign, or — what a seed-matrix cell runs — the monkey
    its seed determines."""
    seed, nodes = params["seed"], params["nodes"]
    if params.get("scenario") == "demo":
        campaign = demo_campaign(nodes)
    else:
        campaign = monkey_campaign(RngStreams(seed),
                                   list(range(1, nodes + 1)),
                                   duration_ms=params["duration_ms"])
    config = SystemConfig(nodes=nodes, master_seed=seed,
                          medium=params["medium"], checkpoint_policy="storage")
    result = run_scenario(campaign, config, pairs=params["pairs"],
                          messages=params["messages"],
                          settle_ms=CHAOS_SETTLE_MS)
    return {
        "ok": result.ok,
        "totals": result.totals,
        "expected": result.expected,
        "report": result.report.to_dict(),
        "events_fired": result.system.engine.events_fired,
        "sim_ms": round(result.system.engine.now, 6),
        "event_digest": text_digest(result.event_stream()),
    }


def chaos_matrix_tasks(seed: int = 1983, runs: int = 9,
                       nodes: int = 3, pairs: int = 2, messages: int = 20,
                       medium: str = "broadcast",
                       duration_ms: float = 4000.0) -> List[ShardTask]:
    """``runs`` seeded chaos scenarios, each running its own monkey.
    Every shard's master seed is ``shard_seed(seed, name)`` — pure name
    derivation, so the matrix lands on identical seeds however it is
    scheduled."""
    return [make_task("chaos", name, seed=shard_seed(seed, name),
                      nodes=nodes, pairs=pairs, messages=messages,
                      medium=medium, duration_ms=duration_ms)
            for name in (f"chaos/{k:03d}" for k in range(runs))]


# ----------------------------------------------------------------------
# gossip: the epidemic repair path's reliability frontier (docs/GOSSIP.md)
# ----------------------------------------------------------------------
#: the frontier's cells: (mode, recording-path loss rate, gossip buffer
#: depth, 0 for the default 256)
GOSSIP_CELLS = (
    ("recorder", 0.0, 0),
    ("recorder", 0.15, 0),
    ("gossip", 0.15, 64),
    ("gossip", 0.3, 16),
)


def gossip_cell(seed: int, mode: str, loss_rate: float, depth: int,
                messages: int) -> ScenarioResult:
    """One frontier cell: the counter workload, no faults, with
    ``loss_rate`` of the recorder's receptions lost and repaired by
    sender retransmission (``recorder``) or by gossip pull."""
    config = SystemConfig(
        nodes=2, master_seed=seed, gossip=mode == "gossip",
        gossip_loss_rate=loss_rate, gossip_round_ms=120.0,
        gossip_max_retries=6, gossip_buffer_depth=depth or 256)
    return run_scenario(
        ChaosCampaign([], name=f"gossip_{mode}_{loss_rate}"), config,
        pairs=1, messages=messages, settle_ms=4000.0)


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


def run_gossip(params: Dict[str, Any]) -> Dict[str, Any]:
    """The reliability-vs-overhead frontier of the epidemic repair path
    over :data:`GOSSIP_CELLS`. Every cell's recorded-set digest folds
    into ``replay_digest``. It passes when every cell's campaign
    invariants hold and every gossip cell that gave nothing up recorded
    the lossless cell's sets."""
    messages = params["messages"]
    frontier: List[Dict[str, Any]] = []
    digest = events = 0
    sim_ms = 0.0
    ok = True
    lossless_digest = None
    for mode, loss_rate, depth in GOSSIP_CELLS:
        result = gossip_cell(params["seed"], mode, loss_rate, depth,
                             messages)
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
        matches = cell_digest == lossless_digest
        ok = ok and result.ok and (mode != "gossip" or gave_up > 0
                                   or matches)
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
            "set_matches_lossless": matches,
        })
        events += system.engine.events_fired
        sim_ms += system.engine.now
    return {
        "ops": 2 * messages * len(GOSSIP_CELLS),
        "events": events,
        "sim_ms": round(sim_ms, 6),
        "replay_digest": digest,
        "cells": len(GOSSIP_CELLS),
        "frontier": frontier,
        "ok": ok,
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
        modes=tuple(params["modes"]), rate=params["rate"])
    return dict(report, event_digest=text_digest(system.obs.bus.to_jsonl()))


# ----------------------------------------------------------------------
# des / federation: one federation, serial reference vs pooled proof
# ----------------------------------------------------------------------
def run_des(params: Dict[str, Any]) -> Dict[str, Any]:
    """One federation run serially and on a process pool per worker
    count; the payload is :func:`~repro.parallel.des.equivalence_report`
    — the one pooled-vs-serial gate — and passes iff it is
    ``equivalent``."""
    scenario = DesScenario(
        clusters=params["clusters"], cluster_size=params["cluster_size"],
        recorder_shards=params.get("recorder_shards", 1),
        messages=params["messages"], duration_ms=params["duration_ms"],
        topology=params["topology"], master_seed=params["seed"],
        forward_delays=(spread_forward_delays(params["clusters"])
                        if params["spread_delays"] else None))
    report = equivalence_report(scenario,
                                worker_counts=tuple(params["des_workers"]))
    return dict(report, ok=report["equivalent"])


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


# ----------------------------------------------------------------------
# media: one message storm per contending medium model
# ----------------------------------------------------------------------
_STORM_STATIONS = 5


def _storm(medium_name: str, seed: int, messages: int) -> Dict[str, Any]:
    """``_STORM_STATIONS`` stations each send ``messages`` guaranteed
    messages over one medium model until every one is acknowledged and
    the event heap drains; ``ops`` counts the deliveries."""
    engine = Engine()
    rng = RngStreams(seed)
    medium = build_medium(medium_name, engine, rng)
    received: List[Any] = []      # every segment handed up, in order
    config = TransportConfig()
    transports = [Transport(engine, medium, node, received.append, config)
                  for node in range(1, _STORM_STATIONS + 1)]
    spacing = rng.stream("perf/storm")
    for index, transport in enumerate(transports):
        dst = (index + 1) % _STORM_STATIONS + 1
        at = 0.0
        for k in range(messages):
            at += spacing.uniform(0.05, 2.0)
            engine.schedule(at, transport.send, dst, ("m", index, k),
                            128, (index + 1, k))
    engine.run()
    return {
        "ops": len(received), "events": engine.events_fired,
        "sim_ms": round(engine.now, 6),
        "retransmissions": sum(t.stats.retransmissions.value
                               for t in transports),
        "collisions": medium.stats.collisions.value,
        # rounded in the two steps the committed figures went through
        "utilization": round(
            round(medium.stats.utilization(engine.now), 4), 3),
    }


def run_media(params: Dict[str, Any]) -> Dict[str, Any]:
    """The same storm over the contending CSMA/CD Ethernet (§6.1.1), the
    Acknowledging Ethernet's reserved slots and the token ring (§6.1.2);
    it passes when every storm delivered every message."""
    storms = {medium: _storm(medium, params["seed"], params["messages"])
              for medium in ("csma_ethernet", "acking_ethernet",
                             "token_ring")}
    return dict(storms, ok=all(
        storm["ops"] == _STORM_STATIONS * params["messages"]
        for storm in storms.values()))


# ----------------------------------------------------------------------
# pipeline: the recorder's publish + checkpoint + replay path
# ----------------------------------------------------------------------
def run_pipeline(params: Dict[str, Any]) -> Dict[str, Any]:
    """Drive the full publishing path: two counter/driver pairs whose
    every message is recorded, then cluster-wide checkpoints, then a
    node crash recovered by replaying the recorded stream. It passes
    when the drivers finish and both counters recover to the exact
    total."""
    pairs, messages = 2, params["messages"]
    system = System(SystemConfig(nodes=3, master_seed=params["seed"],
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

    def phase(name: str, body: Callable[[], bool]) -> bool:
        before_events = system.engine.events_fired
        before_ms = system.engine.now
        done = body()
        phases[name] = {
            "events": system.engine.events_fired - before_events,
            "sim_ms": round(system.engine.now - before_ms, 6),
        }
        return done

    def publish_until(count: int) -> bool:
        deadline = system.engine.now + 120_000.0
        while not drivers_at(count) and system.engine.now < deadline:
            system.run(250)
        return drivers_at(count)

    checkpoints = []

    def checkpoint() -> bool:
        checkpoints.append(system.checkpoint_all())
        system.run(1_000)
        return True

    def recovery_phase() -> bool:
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
                return True
        return False

    # Checkpoint mid-stream so the post-crash recovery genuinely mixes
    # checkpoint restoration with replay of the messages consumed after
    # it — the §3.1 recovery recipe, not a checkpoint-only restore.
    ok = phase("publish", lambda: publish_until(messages // 2))
    phase("checkpoint", checkpoint)
    ok = phase("publish_tail", lambda: publish_until(messages)) and ok
    ok = phase("replay_recovery", recovery_phase) and ok
    phases["checkpoint"]["checkpoints"] = checkpoints[0]

    recorder = system.recorder
    return {
        "ops": pairs * messages,
        "events": system.engine.events_fired,
        "sim_ms": round(system.engine.now, 6),
        "phases": phases,
        "messages_recorded": recorder.messages_recorded.value,
        "recoveries": system.recovery.stats.recoveries_completed,
        "messages_replayed": system.recovery.stats.messages_replayed,
        "ok": ok,
    }


# ----------------------------------------------------------------------
# store: the recorder's log-structured store over a grid
# ----------------------------------------------------------------------
#: (processes, messages per process) grid points
_RECORDER_GRID = ((2, 150), (4, 400))

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


def recorder_scaling(seed: int,
                     grid: Sequence[Tuple[int, int]] = _RECORDER_GRID
                     ) -> Dict[str, Any]:
    """The log-structured recorder store over a processes × messages
    ``grid``, plus the batched vs unbatched disk-path contrast. The
    replay order and consumed-id set at every query point fold into
    ``replay_digest``."""
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
_TOPOLOGY = Param("topology", "ring", choices=("ring", "mesh"))
_DURATION_HELP = "simulated run length after settle (ms)"

#: rig name -> declaration; also the shard kinds ``execute_task``
#: dispatches through (rebuilt on import in every worker process)
RIGS: Dict[str, Rig] = {rig.name: rig for rig in (
    Rig("capacity", "§5.1 capacity table", table=True,
        params=(Param("disks", parse=_csv(int), on="grid",
                      help="comma-separated disk counts"),),
        run=run_capacity, grid=capacity_tasks),
    Rig("utilization", "Figure 5.5 sweep", table=True,
        params=(Param("point", "mean", "operating point",
                      choices=sorted(OPERATING_POINTS)),),
        run=run_utilization, grid=utilization_tasks),
    Rig("figure57", "Figure 5.7 measurement", table=True,
        params=(Param("iterations", parse=int, on="grid",
                      help="send-to-self iterations"),),
        run=run_figure57, grid=figure57_tasks),
    Rig("chaos", "run a fault campaign and print the report",
        params=(
            Param("scenario", "demo", choices=("demo", "monkey"), on="run",
                  help="demo: one fixed fault of each kind; monkey: "
                       "seed-determined random campaign"),
            Param("seed", 1983,
                  help="master seed (drives both the workload and the "
                       "monkey); a sweep's root seed, from which each "
                       "shard's derives by shard name"),
            Param("runs", parse=int, on="grid",
                  help="scenarios in the seed matrix"),
            Param("nodes", 3),
            Param("pairs", 3, "counter/driver pairs in the workload"),
            Param("messages", 40, "request/reply round trips per pair"),
            Param("medium", "broadcast", choices=tuple(MEDIA)),
            Param("duration_ms", 10_000.0, flag="--duration",
                  help="monkey campaign horizon (simulated ms)")),
        run=run_chaos, grid=chaos_matrix_tasks,
        smoke={"scenario": "monkey", "nodes": 3, "pairs": 2,
               "messages": 10, "duration_ms": 4000.0},
        ci_grid=("--runs", "6", "--messages", "10", "--duration", "3000")),
    Rig("gossip", "epidemic-repair frontier: recording-path loss healed "
                  "by sender retransmission or by peer pull "
                  "(docs/GOSSIP.md)",
        params=(_SEED, Param("messages", 18,
                             "request/reply round trips per cell")),
        run=run_gossip, smoke={"messages": 8}),
    Rig("adversary", "Byzantine-recorder quorum acceptance scenario: "
                     "2f+1 recorders outvote faulty logs during replay "
                     "(docs/ADVERSARY.md)",
        params=(_SEED,
                Param("f", 1, "fault tolerance: 2f+1 recorders run"),
                Param("byzantine", 1, "how many recorders turn Byzantine"),
                Param("messages", 30, "request/reply round trips"),
                Param("modes", ("drop", "corrupt", "duplicate", "reorder"),
                      parse=_csv(str),
                      help="comma-separated Byzantine fault modes"),
                Param("rate", 0.3, "per-record fault probability")),
        run=run_adversary, smoke={"messages": 8}),
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
        run=run_des,
        smoke={"clusters": 6, "messages": 4, "duration_ms": 1500.0,
               "des_workers": (1, 2, 4)}),
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
        # the committed curve climbs to a 64-cluster federation
        run=run_federation, smoke={"clusters": (4, 16, 64)}),
    Rig("media", "guaranteed-message storms over three medium models",
        params=(_SEED, Param("messages", 240, "messages per station")),
        run=run_media, smoke={"messages": 30}),
    Rig("pipeline", "the recorder's publish / checkpoint / replay path",
        params=(_SEED, Param("messages", 60,
                             "request/reply round trips per pair")),
        run=run_pipeline, smoke={"messages": 12}),
    Rig("store", "the recorder's log-structured store over a grid",
        params=(_SEED,),
        run=lambda params: recorder_scaling(params["seed"])),
)}


def smoke_argv(rig: Rig) -> List[str]:
    """The subcommand's flags for ``rig.smoke``: its run at them prints
    exactly the rig's committed facts."""
    params = {p.name: p for p in rig.params}
    argv: List[str] = []
    for name, value in rig.smoke.items():
        option = params[name].option
        if isinstance(value, bool):
            argv += [option] if value else []
        elif params[name].repeat:
            argv += [arg for item in value for arg in (option, str(item))]
        elif isinstance(value, (list, tuple)):
            argv += [option, ",".join(map(str, value))]
        else:
            argv += [option, str(value)]
    return argv


def ci_commands() -> List[Tuple[str, List[str]]]:
    """``(report name, argv)`` of every rig's CI cells: its subcommand
    at its smoke flags, and its grid at ``ci_grid``, sharded over two
    workers with the serial check. ``tests/test_rigs.py`` runs each
    in-process on every interpreter; CI loops over them to write the
    artifacts."""
    rigs = RIGS.values()
    return ([(rig.name, [rig.name, *smoke_argv(rig)]) for rig in rigs]
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
    """The named rigs' payloads in ``BENCH_publishing.json``'s layout —
    every rig, in table order, when ``names`` is empty. A rig's facts
    are its payload at its declared defaults, with ``smoke``'s overrides
    when asked for and ``seed`` where it takes one; a payload that fails
    its own ``ok`` raises :class:`FactDivergence` instead."""
    unknown = [name for name in names or () if name not in RIGS]
    if unknown:
        raise ReproError(f"unknown rig(s): {', '.join(unknown)}\n"
                         f"available: {', '.join(RIGS)}")
    facts = {}
    for name in names or RIGS:
        rig = RIGS[name]
        params = dict(rig.smoke) if smoke else {}
        if any(p.name == "seed" for p in rig.params):
            params["seed"] = seed
        payload = rig(**params)
        if not payload["ok"]:
            raise FactDivergence(f"the {name} rig failed at {params}:\n"
                                 + render(payload))
        facts[name] = payload
    return {"schema_version": FACTS_SCHEMA,
            "meta": {"seed": seed, "mode": "smoke" if smoke else "full"},
            "rigs": facts}


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
