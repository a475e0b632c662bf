"""Conservative parallel DES over cluster federations.

A federation's gateways are its only cross-cluster edges, and every
gateway imposes a fixed, positive ``GATEWAY_FORWARD_DELAY_MS`` before a claimed
frame re-enters the world on the far medium. That delay is the
*lookahead* of its channel. On top of the static lookahead, every
logical process (LP) reports a *next-event promise*
(the earliest simulated time anything can happen there), which the pool
master relaxes over the channel graph (:class:`_PoolMaster` — the one
place that knows how far an LP may safely run); that is what lets idle
stretches fast-forward in one barrier.

Two execution modes over one scenario:

* :func:`run_serial` — the reference: every cluster on one engine.
* :func:`run_pooled` — the proof: one OS process per LP. Each worker
  deterministically rebuilds its slice (``ClusterFederation(...,
  partitions=P, only_partition=k)``) on one engine and runs it to the
  targets the parent grants over pipes; the parent routes the frames
  drained from cross-worker channels, batched per barrier in the
  compact wire format (:mod:`repro.parallel.wire`). Digests must be
  identical to the serial run's.

The per-cluster digest covers the full trace-event stream and metrics
snapshot, so "byte-identical" means every layer of every cluster saw
the same events at the same simulated times in the same order.
"""

from __future__ import annotations

import json
import math
# The only clock in src/ (tests/test_facts.py holds the line):
# run_serial / run_pooled return ``wall_ms`` because bench/probes.py
# times pooled against serial with it, and the pool master needs
# wall-clock deadlines to surface a dead worker instead of hanging.
# Neither reaches a digest; equivalence_report drops ``wall_ms``.
import time
import traceback
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.workload import (
    CHAOS_COUNTER_IMAGE,
    CHAOS_DRIVER_IMAGE,
    ChaosCounter,
    ChaosDriver,
    expected_total,
    register_chaos_programs,
)
from repro.cluster.gateways import (
    GATEWAY_FORWARD_DELAY_MS,
    ClusterFederation,
    directed_gateways,
    lp_of,
)
from repro.digest import canonical_json, digest_of, text_digest
from repro.errors import ReproError
from repro.parallel.runner import _mp_context
from repro.parallel.wire import decode_frame_batch, encode_frame_batch
from repro.system import System, SystemConfig

#: Metrics that legitimately differ between one-engine and N-engine
#: execution of the *same* events: each System's ``sim.events_fired``
#: gauge reads its (possibly shared) engine's global event counter.
DES_VOLATILE_METRICS = frozenset({"sim.events_fired"})

#: How long the pool master waits for a worker reply before declaring
#: the child dead (wall-clock seconds; generous — a reply normally
#: arrives in milliseconds).
POOL_REPLY_TIMEOUT_S = 120.0

#: How long ``run_pooled`` waits for each worker to exit once it has
#: been told to (or terminated) before giving up on it.
POOL_JOIN_TIMEOUT_S = 30.0

#: Every DES scenario's fixed timing: the federation boots for
#: ``SETTLE_MS`` before the workload, and cluster i's driver starts at
#: ``1 + i * STAGGER_MS`` so distinct channels never collide on exact
#: event timestamps. Every gateway forwards after
#: :data:`~repro.cluster.gateways.GATEWAY_FORWARD_DELAY_MS`, the
#: lookahead of its channel.
SETTLE_MS = 500.0
STAGGER_MS = 7.3


@dataclass(frozen=True)
class DesScenario:
    """One reproducible federation workload, identical in every mode.

    Each cluster runs a :class:`~repro.chaos.workload.ChaosCounter` and
    a :class:`~repro.chaos.workload.ChaosDriver` targeting the *next*
    cluster's counter, so every add/total round trip crosses two
    gateways. The timing every scenario shares is the module's
    :data:`SETTLE_MS` and :data:`STAGGER_MS`.
    """

    clusters: int = 4
    cluster_size: int = 1
    recorder_shards: int = 1
    messages: int = 6
    duration_ms: float = 3000.0
    topology: str = "ring"
    master_seed: int = 1983

    def validate(self) -> None:
        if self.clusters < 2:
            raise ReproError("a DES scenario needs at least 2 clusters")
        if self.recorder_shards < 1:
            raise ReproError("recorder_shards must be >= 1")


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
#: Scope prefixes :func:`cluster_digest` hashes as its second
#: sub-stream: the recorder and everything that runs beside it.
RECORDER_SIDE_SCOPES = ("recorder", "recovery", "quorum", "watchdog")


def recorder_side_prefixes(recorder_node_id: int) -> Tuple[str, ...]:
    """Every scope prefix on the recorder side of a cluster's digest."""
    return RECORDER_SIDE_SCOPES + (f"transport.{recorder_node_id}",)


def cluster_digest(system: System) -> str:
    """SHA-256 over one cluster's full event stream + metrics snapshot
    (minus :data:`DES_VOLATILE_METRICS`).

    The event stream is hashed as two sub-streams — medium-side scopes,
    then ``=recorder=``, then recorder-side scopes
    (:func:`recorder_side_prefixes`) — each in bus order. The byte
    layout is frozen: every DES digest the ``des`` and ``federation``
    rigs commit in ``BENCH_publishing.json`` is built on it.
    """
    snapshot = {key: value for key, value in system.metrics_snapshot().items()
                if key not in DES_VOLATILE_METRICS}
    prefixes = recorder_side_prefixes(system.config.recorder_node_id)

    def recorder_side(scope: str) -> bool:
        return any(scope == p or scope.startswith(p + ".")
                   for p in prefixes)

    medium_lines: List[str] = []
    recorder_lines: List[str] = []
    for event in system.obs.bus.events:
        line = json.dumps(event.to_dict(), sort_keys=True)
        (recorder_lines if recorder_side(event.scope)
         else medium_lines).append(line)
    blob = ("\n".join(medium_lines) + "\n=recorder=\n"
            + "\n".join(recorder_lines) + "\n" + canonical_json(snapshot))
    return text_digest(blob)


def federation_digest(per_cluster: Dict[int, str]) -> str:
    """One digest over all per-cluster digests, order-independent."""
    return digest_of({str(k): per_cluster[k] for k in per_cluster})


# ----------------------------------------------------------------------
# scenario construction (shared by every mode and every pool worker)
# ----------------------------------------------------------------------
def build_federation(scenario: DesScenario,
                     partitions: Optional[int] = None,
                     only_partition: Optional[int] = None) -> ClusterFederation:
    scenario.validate()
    configs = [SystemConfig(nodes=scenario.cluster_size,
                            master_seed=scenario.master_seed,
                            recorder_shards=scenario.recorder_shards)
               for _ in range(scenario.clusters)]
    fed = ClusterFederation(
        [scenario.cluster_size] * scenario.clusters,
        topology=scenario.topology,
        configs=configs,
        partitions=partitions,
        only_partition=only_partition)
    for system in fed.clusters:
        register_chaos_programs(system)
    return fed


def _spawn_driver(system: System, target: Tuple[int, int],
                  messages: int) -> None:
    system.spawn_program(CHAOS_DRIVER_IMAGE, args=(target, messages),
                         node=system.config.first_node_id)


def spawn_workload(fed: ClusterFederation, scenario: DesScenario) -> None:
    """Spawn the ring workload on every *local* cluster.

    Counters are spawned synchronously (engines idle at the settle
    barrier) in ascending cluster order; every cluster boots through
    the identical sequence, so the counter's local pid component is the
    same on all of them — which is how a pool worker knows the pid of a
    counter it never built. Drivers are then scheduled as staggered
    engine events, so their timestamps are identical in every mode.
    """
    counter_local: Optional[int] = None
    for index in sorted(fed.systems):
        system = fed.systems[index]
        pid = system.spawn_program(CHAOS_COUNTER_IMAGE,
                                   node=system.config.first_node_id)
        if counter_local is None:
            counter_local = pid.local
        elif pid.local != counter_local:
            raise ReproError(
                f"counter local ids diverged: {pid.local} != {counter_local}")
    for index in sorted(fed.systems):
        system = fed.systems[index]
        target_cluster = (index + 1) % scenario.clusters
        target = (fed.configs[target_cluster].first_node_id, counter_local)
        delay = 1.0 + STAGGER_MS * index
        system.engine.schedule(delay, _spawn_driver, system, target,
                               scenario.messages)


def _programs_of(system: System, cls) -> List[Any]:
    out = []
    for node_id in sorted(system.nodes):
        kernel = system.nodes[node_id]
        for pid in sorted(kernel.processes):
            program = kernel.processes[pid].program
            if isinstance(program, cls):
                out.append(program)
    return out


def collect_local(fed: ClusterFederation,
                  scenario: DesScenario) -> Dict[str, Any]:
    """Digest + workload summary for every cluster this federation
    (or slice) owns. Pure data — safe to send over a pipe."""
    per_cluster: Dict[int, str] = {}
    replies: Dict[int, int] = {}
    totals: Dict[int, int] = {}
    for index, system in sorted(fed.systems.items()):
        per_cluster[index] = cluster_digest(system)
        drivers = _programs_of(system, ChaosDriver)
        counters = _programs_of(system, ChaosCounter)
        replies[index] = len(drivers[0].replies) if drivers else 0
        totals[index] = counters[0].total if counters else 0
    forwarders = [g.forwarder for g in fed.gateways
                  if g.forwarder is not None]
    return {
        "per_cluster": per_cluster,
        "replies": replies,
        "totals": totals,
        "frames_forwarded": sum(f.frames_forwarded.value
                                for f in forwarders),
        "frames_dropped": sum(f.frames_dropped.value for f in forwarders),
        "gateway_retries": sum(f.retries.value for f in forwarders),
        "dead_letters": len(fed.dead_letters),
    }


def _merge_collected(parts: Sequence[Dict[str, Any]],
                     scenario: DesScenario) -> Dict[str, Any]:
    per_cluster: Dict[int, str] = {}
    replies: Dict[int, int] = {}
    totals: Dict[int, int] = {}
    counters = {"frames_forwarded": 0, "frames_dropped": 0,
                "gateway_retries": 0, "dead_letters": 0}
    for part in parts:
        per_cluster.update(part["per_cluster"])
        replies.update(part["replies"])
        totals.update(part["totals"])
        for key in counters:
            counters[key] += part[key]
    expected = expected_total(scenario.messages)
    ok = (len(per_cluster) == scenario.clusters
          and all(replies.get(i) == scenario.messages
                  for i in range(scenario.clusters))
          and all(totals.get(i) == expected
                  for i in range(scenario.clusters)))
    return {
        "digest": federation_digest(per_cluster),
        "per_cluster": {str(k): per_cluster[k] for k in sorted(per_cluster)},
        "replies": [replies.get(i, 0) for i in range(scenario.clusters)],
        "totals": [totals.get(i, 0) for i in range(scenario.clusters)],
        "expected_total": expected,
        "workload_ok": ok,
        **counters,
    }


# ----------------------------------------------------------------------
# the serial reference
# ----------------------------------------------------------------------
def run_serial(scenario: DesScenario) -> Dict[str, Any]:
    """The reference execution: one engine, no windows."""
    started = time.perf_counter()
    fed = build_federation(scenario)
    fed.boot(settle_ms=SETTLE_MS)
    spawn_workload(fed, scenario)
    fed.run(scenario.duration_ms)
    result = _merge_collected([collect_local(fed, scenario)], scenario)
    result.update({
        "mode": "serial",
        "partitions": 0,
        "clusters": scenario.clusters,
        "sim_ms": SETTLE_MS + scenario.duration_ms,
        "wall_ms": (time.perf_counter() - started) * 1000.0,
        "barriers": 0,
        "messages_exchanged": 0,
    })
    return result


# ----------------------------------------------------------------------
# process-pool mode
# ----------------------------------------------------------------------
def _pool_worker(conn, scenario: DesScenario, partitions: int,
                 shard: int) -> None:
    """One LP in its own process: rebuild the slice, then follow the
    parent's grant protocol over the pipe.

    Every reply carries the engine's fresh next-event bound (``None`` =
    idle), so the parent's promises can never go stale across
    boot/checkpoint/spawn commands. An uncaught exception is reported as
    ``("error", traceback)`` so the parent can surface the child's stack
    instead of hanging.
    """
    try:
        fed = build_federation(scenario, partitions=partitions,
                               only_partition=shard)
        engine = fed.engine
        in_channels = {channel.key: channel for channel in fed.channels
                       if channel.dst == shard}
        out_channels = [channel for channel in fed.channels
                        if channel.src == shard]
        while True:
            command = conn.recv()
            kind = command[0]
            if kind == "boot":
                for system in fed.clusters:
                    system.boot(settle_ms=0.0)
                conn.send(("ok", engine.peek_time()))
            elif kind == "advance":
                _, target, blob = command
                if blob:
                    # inbound arrives pre-sorted by (fire_time, key,
                    # seq) — see _PoolMaster.route
                    for fire_time, key, _seq, frame, _dst in \
                            decode_frame_batch(blob):
                        engine.schedule_abs(
                            fire_time, in_channels[key].deliver, frame)
                engine.run(until=target)
                outbound = []
                for channel in out_channels:
                    for fire_time, seq, frame in channel.drain():
                        outbound.append(
                            (fire_time, channel.key, seq, frame,
                             channel.dst))
                conn.send(("out",
                           encode_frame_batch(outbound) if outbound else b"",
                           engine.peek_time()))
            elif kind == "checkpoint":
                for system in fed.clusters:
                    if system.config.publishing:
                        system.checkpoint_all()
                conn.send(("ok", engine.peek_time()))
            elif kind == "spawn":
                spawn_workload(fed, scenario)
                conn.send(("ok", engine.peek_time()))
            elif kind == "collect":
                conn.send(("result", collect_local(fed, scenario)))
            elif kind == "exit":
                return
            else:   # pragma: no cover - protocol error
                raise ReproError(f"unknown pool command {kind!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:   # pragma: no cover - parent already gone
            pass
        raise
    finally:
        conn.close()


class _PoolMaster:
    """The parent half of the pooled promise protocol, and the only
    place that knows how far an LP may safely run.

    Knows the complete cross-worker channel graph — one edge per
    gateway whose two clusters live on different workers — derived from
    the scenario alone, without building a single cluster. Each round it
    relaxes the workers' reported next-event bounds over that graph,
    grants every worker the largest provably-safe advance target, and
    routes drained frames.
    """

    def __init__(self, scenario: DesScenario, partitions: int):
        count = scenario.clusters
        #: every edge's lookahead: the gateway forwarding delay
        self.lookahead = GATEWAY_FORWARD_DELAY_MS
        #: every cross-worker edge as (src_worker, dst_worker)
        self.edges: List[Tuple[int, int]] = []
        for _gid, src, dst in directed_gateways(count, scenario.topology):
            src_lp = lp_of(src, partitions, count)
            dst_lp = lp_of(dst, partitions, count)
            if src_lp != dst_lp:
                self.edges.append((src_lp, dst_lp))
        workers = range(partitions)
        #: latest reported next-event bound per worker (inf = idle)
        self.bounds: Dict[int, float] = {w: 0.0 for w in workers}
        #: last granted target per worker
        self.granted: Dict[int, float] = {w: 0.0 for w in workers}
        #: frames routed to a worker but not yet shipped
        self.pending: Dict[int, List[Tuple]] = {w: [] for w in workers}

    def note_bound(self, worker: int, bound: Optional[float]) -> None:
        self.bounds[worker] = math.inf if bound is None else bound

    def relaxed_bounds(self) -> Dict[int, float]:
        """Per-worker lower bounds on the next event that can occur
        there: the Bellman-Ford fixed point of ``bound[dst] <=
        bound[src] + L`` over reported bounds and not-yet-shipped frame
        fire times, which folds transitive chains — the
        null-message-style "no event before T" promise."""
        node = dict(self.bounds)
        for items in self.pending.values():
            for fire_time, _key, _seq, _frame, dst in items:
                if fire_time < node[dst]:
                    node[dst] = fire_time
        for _ in range(len(node)):
            changed = False
            for src, dst in self.edges:
                bound = node[src] + self.lookahead
                if bound < node[dst]:
                    node[dst] = bound
                    changed = True
            if not changed:
                break
        return node

    def targets(self, until: float) -> Dict[int, float]:
        """The largest provably-safe advance target per worker
        (nondecreasing; the worker owning the globally-earliest bound
        always makes strict progress because every lookahead is
        strictly positive)."""
        node = self.relaxed_bounds()
        out = {worker: until for worker in self.granted}
        for src, dst in self.edges:
            bound = node[src] + self.lookahead
            if bound < out[dst]:
                out[dst] = bound
        return {worker: max(target, self.granted[worker])
                for worker, target in out.items()}

    def route(self, drained: List[Tuple]) -> int:
        """Sort one barrier's drained frames globally and queue them
        for their destination workers; a pure function of the message
        set, so injection order never depends on worker timing."""
        drained.sort(key=lambda item: (item[0], item[1], item[2]))
        for item in drained:
            self.pending[item[4]].append(item)
        return len(drained)

    def done(self, until: float) -> bool:
        return (all(target >= until for target in self.granted.values())
                and not any(self.pending.values())
                and all(bound > until for bound in self.bounds.values()))


def _pool_recv(pipe, process, shard: int,
               timeout_s: float = POOL_REPLY_TIMEOUT_S):
    """Receive one worker reply, surfacing child death instead of
    blocking forever: polls with a deadline and raises
    :class:`ReproError` carrying the child's traceback (if it managed
    to send one) or its exit code."""
    deadline = time.monotonic() + timeout_s

    def take():
        reply = pipe.recv()
        if reply[0] == "error":
            raise ReproError(
                f"DES pool worker {shard} failed:\n{reply[1]}")
        return reply

    while True:
        try:
            if pipe.poll(0.05):
                return take()
        except (EOFError, OSError):
            raise ReproError(
                f"DES pool worker {shard} closed its pipe unexpectedly "
                f"(exit code {process.exitcode})")
        if not process.is_alive():
            # Drain a final message the child flushed before dying.
            try:
                if pipe.poll(0):
                    return take()
            except (EOFError, OSError):
                pass
            raise ReproError(
                f"DES pool worker {shard} died without replying "
                f"(exit code {process.exitcode})")
        if time.monotonic() > deadline:
            raise ReproError(
                f"DES pool worker {shard} did not reply within "
                f"{timeout_s:.0f}s")


def run_pooled(scenario: DesScenario, workers: int) -> Dict[str, Any]:
    """One OS process per LP, the parent granting safe targets.

    Each round the parent relaxes the workers' reported next-event
    bounds over the channel graph, grants every worker the largest
    provably-safe target (so quiet stretches fast-forward in a handful
    of barriers instead of one per lookahead window), ships each worker
    its routed frames as one compact wire-format batch, and gathers
    what the workers' taps claimed.
    """
    scenario.validate()
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    partitions = min(workers, scenario.clusters)
    started = time.perf_counter()
    ctx = _mp_context()
    master = _PoolMaster(scenario, partitions)
    pipes = []
    processes = []
    barriers = 0
    messages_exchanged = 0
    try:
        for shard in range(partitions):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_pool_worker,
                args=(child_conn, scenario, partitions, shard), daemon=True)
            process.start()
            child_conn.close()
            pipes.append(parent_conn)
            processes.append(process)

        def broadcast(command):
            for pipe in pipes:
                pipe.send(command)
            replies = [_pool_recv(pipe, process, shard)
                       for shard, (pipe, process)
                       in enumerate(zip(pipes, processes))]
            for shard, reply in enumerate(replies):
                if reply[0] == "ok":
                    master.note_bound(shard, reply[1])
            return replies

        def advance(duration: float) -> None:
            nonlocal barriers, messages_exchanged
            until = min(master.granted.values()) + duration
            while True:
                targets = master.targets(until)
                for shard, pipe in enumerate(pipes):
                    batch = master.pending[shard]
                    master.pending[shard] = []
                    pipe.send(("advance", targets[shard],
                               encode_frame_batch(batch) if batch else b""))
                master.granted = targets
                drained: List[Tuple] = []
                for shard, (pipe, process) in enumerate(
                        zip(pipes, processes)):
                    tag, blob, bound = _pool_recv(pipe, process, shard)
                    if tag != "out":   # pragma: no cover - protocol error
                        raise ReproError(f"unexpected worker reply {tag!r}")
                    if blob:
                        drained.extend(decode_frame_batch(blob))
                    master.note_bound(shard, bound)
                barriers += 1
                moved = master.route(drained)
                messages_exchanged += moved
                if moved:
                    continue
                if master.done(until):
                    break

        broadcast(("boot",))
        advance(SETTLE_MS)
        broadcast(("checkpoint",))
        broadcast(("spawn",))
        advance(scenario.duration_ms)
        parts = [reply[1] for reply in broadcast(("collect",))]
        for pipe in pipes:
            pipe.send(("exit",))
    except BaseException:
        # The survivors sit in conn.recv() waiting for a command that
        # will never come; joining them first would cost one full join
        # timeout each before the error surfaced.
        for process in processes:
            process.terminate()
        raise
    finally:
        for process in processes:
            process.join(timeout=POOL_JOIN_TIMEOUT_S)
            if process.is_alive():   # pragma: no cover - hung worker
                process.terminate()
        for pipe in pipes:
            pipe.close()

    result = _merge_collected(parts, scenario)
    result.update({
        "mode": "pooled",
        "partitions": partitions,
        "workers": workers,
        "clusters": scenario.clusters,
        "sim_ms": SETTLE_MS + scenario.duration_ms,
        "wall_ms": (time.perf_counter() - started) * 1000.0,
        "barriers": barriers,
        "messages_exchanged": messages_exchanged,
    })
    return result


# ----------------------------------------------------------------------
# equivalence reports
# ----------------------------------------------------------------------
def equivalence_report(scenario: DesScenario,
                       worker_counts: Sequence[int] = (1, 2)
                       ) -> Dict[str, Any]:
    """Run the scenario serially and pooled, and compare digests.

    Returns a report with every run's summary (minus ``wall_ms``: the
    report is pure facts), the reference digest, and ``equivalent`` —
    True iff every run produced byte-identical per-cluster digests and
    a correct workload outcome. The one pooled-vs-serial gate: the
    ``des`` / ``federation`` rigs go through it.
    """
    runs = [run_serial(scenario)]
    for count in worker_counts:
        runs.append(run_pooled(scenario, workers=count))
    for run in runs:
        del run["wall_ms"]
    reference = runs[0]["digest"]
    mismatches = [
        {"mode": run["mode"], "partitions": run["partitions"],
         "digest": run["digest"]}
        for run in runs if run["digest"] != reference]
    equivalent = not mismatches and all(run["workload_ok"] for run in runs)
    return {
        "scenario": asdict(scenario),
        "reference_digest": reference,
        "equivalent": equivalent,
        "mismatches": mismatches,
        "runs": runs,
    }
