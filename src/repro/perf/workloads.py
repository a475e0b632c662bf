"""The canonical determinism workloads.

Each workload is a function ``(seed, smoke) -> dict`` whose first keys
are ``ops`` (its primary operation count), ``events`` (engine events
fired) and ``sim_ms`` (simulated time covered), followed by whatever
counters and digests pin its behaviour.

Every workload is a pure function of its seed and reads no clock: every
value it returns must be identical on every run and every machine —
``BENCH_publishing.json`` and ``tests/test_perf_harness.py`` rely on
it. Workloads validate their own outcomes (message counts, counter
totals) and raise on divergence, so a committed fact can never describe
a broken simulation.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Callable, Dict, List, Tuple

from repro.digest import digest_of, fold
from repro.errors import ReproError
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

#: churn script knobs: (pump steps, ops per step)
_CHURN_FULL = (600, 100)
_CHURN_SMOKE = (60, 100)

#: storm knobs: (stations, guaranteed messages per station)
_STORM_FULL = (5, 240)
_STORM_SMOKE = (5, 30)


class PerfDivergence(ReproError, RuntimeError):
    """A workload's outcome did not match its expectation — the report
    would be describing a broken run, so the harness fails."""


# ----------------------------------------------------------------------
# engine event churn
# ----------------------------------------------------------------------
def _churn_script(seed: int, steps: int,
                  per_step: int) -> List[List[Tuple[Any, ...]]]:
    """A seeded schedule/cancel/chain operation script."""
    rng = random.Random(seed)
    script: List[List[Tuple[Any, ...]]] = []
    for _ in range(steps):
        ops: List[Tuple[Any, ...]] = []
        for _ in range(per_step):
            r = rng.random()
            if r < 0.62:        # plain timer
                ops.append(("s", rng.uniform(0.01, 60.0),
                            rng.randrange(1 << 16)))
            elif r < 0.87:      # cancel a previously scheduled timer
                ops.append(("c", rng.randrange(1 << 30)))
            else:               # self-rescheduling chain (decaying delay)
                ops.append(("b", rng.uniform(0.5, 8.0),
                            rng.randrange(1 << 16)))
        script.append(ops)
    return script


def engine_churn(seed: int, smoke: bool) -> Dict[str, Any]:
    """Seeded schedule/cancel/spawn churn through the live engine,
    folded into an order-sensitive digest of the fired event stream."""
    steps, per_step = _CHURN_SMOKE if smoke else _CHURN_FULL
    script = _churn_script(seed, steps, per_step)
    engine = Engine()
    digest = [0]
    handles: List[Any] = []

    def work(tag):
        digest[0] = fold(digest[0], tag)

    def chain(tag, delay):
        digest[0] = fold(digest[0], tag)
        if delay > 0.4:
            engine.schedule(delay, chain, tag ^ 0x5A5A, delay * 0.5)

    def pump(k):
        for op in script[k]:
            kind = op[0]
            if kind == "s":
                handles.append(engine.schedule(op[1], work, op[2]))
            elif kind == "c":
                if handles:
                    handles.pop(op[1] % len(handles)).cancel()
            else:
                engine.schedule(op[1], chain, op[2], op[1])
        if len(handles) > 4096:
            del handles[:2048]
        if k + 1 < len(script):
            engine.schedule(0.37, pump, k + 1)

    engine.schedule(0.0, pump, 0)
    engine.run()
    return {
        "ops": steps * per_step,
        "events": engine.events_fired,
        "sim_ms": round(engine.now, 6),
        "event_digest": digest[0],
    }


# ----------------------------------------------------------------------
# media message storms
# ----------------------------------------------------------------------
def _storm(medium_name: str, seed: int, smoke: bool) -> Dict[str, Any]:
    """N stations exchange guaranteed messages over one medium model
    until every message is acknowledged and the event heap drains."""
    from repro.net import build_medium
    from repro.net.transport import Transport, TransportConfig

    stations, msgs = _STORM_SMOKE if smoke else _STORM_FULL
    engine = Engine()
    rng = RngStreams(seed)
    medium = build_medium(medium_name, engine, rng)

    received = [0]

    def on_receive(_segment):
        received[0] += 1

    config = TransportConfig()
    transports = [Transport(engine, medium, node, on_receive, config)
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
    if received[0] != expected:
        raise PerfDivergence(
            f"storm[{medium_name}]: delivered {received[0]} of "
            f"{expected} guaranteed messages")
    stats = {
        "retransmissions": sum(t.stats.retransmissions.value
                               for t in transports),
        "collisions": medium.stats.collisions.value,
        # rounded in the two steps the committed figures went through
        "utilization": round(
            round(medium.stats.utilization(engine.now), 4), 3),
    }
    return {"ops": expected, "events": engine.events_fired,
            "sim_ms": round(engine.now, 6), **stats}


# ----------------------------------------------------------------------
# recorder publish + checkpoint + replay-recovery pipeline
# ----------------------------------------------------------------------
def recorder_pipeline(seed: int, smoke: bool) -> Dict[str, Any]:
    """Drive the full publishing path: a counter/driver workload whose
    every message is recorded, then cluster-wide checkpoints, then a
    node crash recovered by replaying the recorded stream."""
    from repro.chaos.workload import (
        CHAOS_COUNTER_IMAGE,
        CHAOS_DRIVER_IMAGE,
        expected_total,
        register_chaos_programs,
    )
    from repro.system import System, SystemConfig

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
            raise PerfDivergence("recorder_pipeline: workload stalled")

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
        raise PerfDivergence(
            f"recorder_pipeline: counters ended at {totals}, "
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


# ----------------------------------------------------------------------
# recorder store scaling
# ----------------------------------------------------------------------

#: (processes, messages per process) grid points
_RECORDER_GRID_FULL = ((4, 300), (8, 600), (16, 1200))
_RECORDER_GRID_SMOKE = ((2, 150), (4, 400))

#: checkpoints per process over the stream (the reclamation cadence)
_RECORDER_CKPTS = 10

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
    from repro.demos.ids import MessageId, ProcessId

    rng = random.Random(seed)
    script: List[Tuple[Any, ...]] = []
    queues: List[List[Any]] = [[] for _ in range(processes)]
    consumed = [0] * processes
    controls = [0] * processes
    sent = [0] * processes
    arrived = [0] * processes
    ckpt_every = max(1, messages // _RECORDER_CKPTS)
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
    set (folded in sorted order)."""
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
    from repro.demos.ids import ProcessId
    from repro.demos.messages import Message
    from repro.publishing.database import CheckpointEntry, RecorderDatabase
    from repro.publishing.store import SegmentedLog

    db = RecorderDatabase(SegmentedLog(64))
    records = [db.create(ProcessId(2, p + 1), node=2, image="bench")
               for p in range(processes)]
    digest = 0
    for op in script:
        kind, p = op[0], op[1]
        record = records[p]
        if kind == "msg":
            _, _, msg_id, size, is_control = op
            message = Message(msg_id=msg_id, src=msg_id.sender,
                              dst=record.pid, channel=1, code=0, body=None,
                              size_bytes=size, deliver_to_kernel=is_control)
            record.record_message(message, db.allocate_arrival_index())
        elif kind == "adv":
            record.add_advisory(op[2], op[3])
        elif kind == "ckpt":
            record.apply_checkpoint(CheckpointEntry(
                data=None, consumed=op[2], dtk_processed=op[3],
                send_seq=0, pages=1, stored_at=0.0))
        else:   # query
            digest = _digest_queries(digest, record.messages_to_replay(),
                                     record.consumed_ids(op[2]))
    return {"digest": digest, "log_bytes": db.log.log_bytes,
            "live_bytes": db.log.live_bytes,
            "compactions": db.log.compactions,
            "segments_retired": db.log.segments_retired,
            "segments": db.log.segments}


def _page_buffer_contrast(sizes: List[int]) -> Dict[str, Any]:
    """The §5.1 batching contrast on the engine wheel: the same message
    byte stream through per-message writes, fill-triggered group commit,
    and group commit with a flush deadline. Deterministic: supplies the
    workload's ``events``/``sim_ms`` facts."""
    from repro.publishing.disk import DiskArray, PageBuffer

    out: Dict[str, Any] = {}
    events = 0
    sim_ms = 0.0
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
    out["events"] = events
    out["sim_ms"] = sim_ms
    return out


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
    contrast = _page_buffer_contrast(
        [rng.choice((128, 128, 256, 1024)) for _ in range(512)])
    events = contrast.pop("events")
    sim_ms = contrast.pop("sim_ms")
    return {
        "ops": total_messages,
        "events": events,
        "sim_ms": round(sim_ms, 6),
        "grid": grid_out,
        "page_buffer": contrast,
        "replay_digest": digest,
    }


# ----------------------------------------------------------------------
# workloads that are a rig at a point (repro.rigs)
# ----------------------------------------------------------------------
def _gated(label: str, rig: str, sharded: bool = False,
           **params: Any) -> Dict[str, Any]:
    """The one door from a workload to the rig table: rig ``rig``'s
    report at ``params`` — or, ``sharded``, its grid's merged report,
    run on two workers beside the serial re-run. The workload fails
    unless every payload passed the rig's own ``ok`` and every shard
    matched its serial digest: no committed leaf describes a run that
    failed or diverged."""
    from repro.rigs import RIGS, run_sweep

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
        raise PerfDivergence(f"{label}: the {rig} rig's gate failed\n"
                             + "\n".join(failures))
    return report


def chaos_campaign(seed: int, smoke: bool) -> Dict[str, Any]:
    """The ``chaos`` rig at a seeded monkey campaign against the counter
    workload — the heaviest integration path: faults, retries, replays,
    watchdogs."""
    messages = 10 if smoke else 30
    horizon = 4_000.0 if smoke else 10_000.0
    # A short horizon can cut the campaign right after a late fault;
    # give recoveries room to settle before the invariants are judged.
    payload = _gated("chaos_campaign", "chaos", scenario="monkey",
                     seed=seed, nodes=3, pairs=2, messages=messages,
                     duration_ms=horizon, settle_ms=8_000.0)
    return {
        "ops": 2 * messages,
        "events": payload["events_fired"],
        "sim_ms": payload["sim_ms"],
        "actions": len(payload["report"]["fired"]),
        "recoveries": payload["report"]["figures"]["recoveries_completed"],
    }


#: sweep_scaling knobs: (scenarios, messages per pair)
_SWEEP_FULL = (16, 12)
_SWEEP_SMOKE = (6, 8)


def sweep_scaling(seed: int, smoke: bool) -> Dict[str, Any]:
    """The ``chaos`` rig's seed matrix, sharded over two workers.

    The sharded run and its serial re-run must produce the identical
    digest chain (the determinism contract of the sharded runner) and
    every scenario must pass its campaign invariants.
    """
    runs, messages = _SWEEP_SMOKE if smoke else _SWEEP_FULL
    merged = _gated("sweep_scaling", "chaos", sharded=True, root_seed=seed,
                    runs=runs, pairs=1, messages=messages,
                    duration_ms=2500.0, settle_ms=6000.0)
    payloads = [shard["payload"] for shard in merged["shards"]]
    return {
        "ops": runs,
        "events": sum(payload["events_fired"] for payload in payloads),
        # parallel shards overlap in simulated time; report the longest
        "sim_ms": max(payload["sim_ms"] for payload in payloads),
        "sweep_digest": merged["digest"][:16],
    }


_DES_SMOKE = (6, 4, 1500.0)     # clusters, messages, duration_ms
_DES_FULL = (32, 6, 3000.0)
_DES_WORKER_COUNTS = (1, 2, 4)


def _exchange(run: Dict[str, Any]) -> Dict[str, int]:
    """The facts of the promise protocol one pooled run commits."""
    return {key: run[key] for key in ("barriers", "messages_exchanged")}


def parallel_des(seed: int, smoke: bool) -> Dict[str, Any]:
    """One federation simulated serially vs conservatively partitioned.

    Unlike :func:`sweep_scaling` (independent runs sharded over a
    pool), this partitions a *single* simulation: one LP per cluster
    group, synchronized through gateway-lookahead windows
    (docs/PARALLEL_DES.md). The serial run and every pooled run must
    produce byte-identical per-cluster digests — the determinism
    contract. Barrier and exchange counts per worker count are facts of
    the promise protocol, not of the machine.
    """
    clusters, messages, duration_ms = _DES_SMOKE if smoke else _DES_FULL
    serial, *pooled = _gated(
        "parallel_des", "des", clusters=clusters, messages=messages,
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


#: scaling grid: (cluster counts, messages, duration_ms, worker counts)
_DES_SCALING_SMOKE = ((6,), 4, 3000.0, (1, 2))
_DES_SCALING_FULL = ((8, 16), 6, 6000.0, (1, 2, 4, 8))


def des_scaling(seed: int, smoke: bool) -> Dict[str, Any]:
    """The pooled DES promise protocol over a clusters × workers grid.

    For each cluster count, one federation with heterogeneous
    per-channel lookaheads is run serially (the reference), then pooled
    at each worker count under the promise protocol (per-channel
    lookahead + next-event promises + idle fast-forward). Every cell
    must reproduce the serial digest exactly; its barrier count shows
    how few grants the promises need.
    """
    cluster_counts, messages, duration_ms, worker_counts = (
        _DES_SCALING_SMOKE if smoke else _DES_SCALING_FULL)
    grid: Dict[str, Any] = {}
    digests: Dict[str, str] = {}
    events = 0
    for clusters in cluster_counts:
        serial, *pooled = _gated(
            f"des_scaling[{clusters}]", "des", clusters=clusters,
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


# ----------------------------------------------------------------------
# epidemic repair frontier (publishing.gossip)
# ----------------------------------------------------------------------

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
    """The reliability-vs-overhead frontier of the epidemic repair path.

    Each cell runs the counter workload under seed-pure loss on the
    recording path. The ``recorder`` cells keep strict enforcement —
    misses are repaired by sender retransmission (overhead shows up as
    ``retransmissions``); the ``gossip`` cells tolerate misses and pull
    the log holes closed from bounded peer buffers (overhead shows up
    as pulls/supplies, and a too-small buffer surfaces as ``gave_up``).
    Every cell's recorded-set digest folds into ``replay_digest``, so
    the compare gate pins two-run determinism of the loss injection,
    the fanout draws, and the repair order.
    """
    from repro.chaos import ChaosCampaign, run_scenario
    from repro.system import SystemConfig

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
            raise PerfDivergence(
                f"gossip_repair[{mode} loss={loss_rate}]: invariants failed:\n"
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
            raise PerfDivergence(
                f"gossip_repair[{mode} loss={loss_rate}]: repair converged "
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


#: adversary_quorum cells: (recorders 2f+1, faulty, messages per log)
_ADVERSARY_FULL = ((3, 1, 400), (5, 2, 400), (7, 3, 300), (5, 2, 1200))
_ADVERSARY_SMOKE = ((3, 1, 60), (5, 2, 60))


def adversary_quorum(seed: int, smoke: bool) -> Dict[str, Any]:
    """Quorum replay against Byzantine recorder logs.

    Each cell feeds one ground-truth message stream into 2f+1 recorder
    databases — the last ``faulty`` of them through a seed-pure
    :class:`~repro.chaos.adversary.ByzantineRecorder` stage — then
    takes the cross-recorder majority vote
    (:func:`~repro.publishing.multi_recorder.quorum_replay_stream`).
    The ≤f contract is enforced inline: the majority stream must digest
    to the fault-free state and only faulty recorders may be flagged;
    the digest folds the flagged set too, so the compare gate pins the
    detection behaviour, not just the winner.  A final end-to-end cell
    runs the live acceptance rig (Byzantine stage armed mid-traffic,
    node crash, quorum recovery), which supplies the workload's
    engine-event and simulated-time figures.
    """
    from repro.chaos.adversary import (ByzantineRecorder, feed_record,
                                       run_quorum_scenario)
    from repro.demos.ids import MessageId, ProcessId
    from repro.demos.messages import Message
    from repro.publishing.database import RecorderDatabase
    from repro.publishing.multi_recorder import (process_state_digest,
                                                 quorum_replay_stream)

    src = ProcessId(1, 5)
    dst = ProcessId(2, 9)

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

    cells = _ADVERSARY_SMOKE if smoke else _ADVERSARY_FULL
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
            raise PerfDivergence(
                f"adversary_quorum[{recorders}r/{faulty}b]: <=f replay "
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
    # One live rig cell: Byzantine stage armed mid-traffic, node crash,
    # recovery through the shared quorum vote.  Its engine gives the
    # workload real event/sim figures, and folding its totals into the
    # digest pins the end-to-end path, not just the offline vote.
    rig, report = run_quorum_scenario(f=1, byzantine=1,
                                      messages=8 if smoke else 30,
                                      master_seed=seed)
    if not report["ok"]:
        raise PerfDivergence(
            "adversary_quorum rig: scenario invariants failed "
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
# planet-scale federation (cluster.placement + queueing.federation)
# ----------------------------------------------------------------------

#: federation_scaling knobs:
#: (cluster counts, cluster_size, recorder_shards, messages, duration_ms)
_FEDERATION_FULL = ((4, 16, 32, 64, 100), 2, 2, 3, 2000.0)
#: smoke still climbs to 64 clusters: the committed curve must keep
#: >=3 cells with the largest federation at planet scale (ISSUE 10)
_FEDERATION_SMOKE = ((4, 16, 64), 2, 2, 3, 2000.0)

#: the gateway station's uplink serialisation time for the capacity
#: section
_FEDERATION_SERVICE_MS = 2.0


def federation_scaling(seed: int, smoke: bool) -> Dict[str, Any]:
    """The 100-cluster scaling curve with sharded recorder placement.

    Each cell is one ring federation of two-node clusters, every
    cluster's recorder split into two claim-filtered shards
    (``cluster.placement``), run two ways by the ``federation`` rig:
    the single-engine serial reference, which supplies the cell's
    facts, and the promise-sync pooled DES on two worker processes —
    the cross-process determinism proof, which supplies
    ``pooled_barriers``. Their federation digests must be identical.

    The capacity section pairs the federation-level queueing model
    (:class:`~repro.queueing.federation.FederationCapacityModel`) with a
    measurement: the modeled user-capacity knee and saturating station
    per topology, and the gateway station's modeled saturation rate
    against a *driven* :class:`~repro.cluster.gateways.Gateway`'s
    measured knee, with the relative error recorded per topology.
    """
    counts, cluster_size, shards, messages, duration_ms = (
        _FEDERATION_SMOKE if smoke else _FEDERATION_FULL)
    report = _gated(
        "federation_scaling", "federation", clusters=counts,
        cluster_size=cluster_size, recorder_shards=shards,
        messages=messages, duration_ms=duration_ms, seed=seed,
        service_ms=_FEDERATION_SERVICE_MS)
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


#: name -> workload function, in canonical report order
WORKLOADS: Dict[str, Callable[[int, bool], Dict[str, Any]]] = {
    "engine_churn": engine_churn,
    # the same storm over the contending CSMA/CD Ethernet (§6.1.1), the
    # Acknowledging Ethernet's reserved slots, the token ring (§6.1.2)
    "storm_csma": partial(_storm, "csma_ethernet"),
    "storm_acking": partial(_storm, "acking_ethernet"),
    "storm_token_ring": partial(_storm, "token_ring"),
    "recorder_pipeline": recorder_pipeline,
    "recorder_scaling": recorder_scaling,
    "chaos_campaign": chaos_campaign,
    "sweep_scaling": sweep_scaling,
    "parallel_des": parallel_des,
    "des_scaling": des_scaling,
    "gossip_repair": gossip_repair,
    "adversary_quorum": adversary_quorum,
    "federation_scaling": federation_scaling,
}
