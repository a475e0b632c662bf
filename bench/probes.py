"""Direct-call probes: time calls into each layer's public functions.

Each probe builds what it needs once, then its ``chunk()`` performs a
fixed number of operations and returns how many. :func:`measure` runs
chunks for a time budget, several times over, and reports the median
cost per operation. A probe whose target no longer exists reports
``None`` with a warning (:func:`guarded`) and never fails the run, so a
later deletion is not blocked by a probe.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time
from functools import partial
from typing import Callable, Dict, Optional

from repro.sim.rng import derive_seed

REPEATS = 5
#: what a probe may raise when the code it targets has been removed
MISSING = (ImportError, AttributeError, TypeError)

Chunk = Callable[[], int]


def measure(chunk: Chunk, budget_s: float) -> float:
    """Median seconds per operation over REPEATS timed stretches."""
    chunk()                                         # warm
    costs = []
    for _ in range(REPEATS):
        done, started = 0, time.perf_counter()
        while True:
            done += chunk()
            elapsed = time.perf_counter() - started
            if elapsed >= budget_s:
                break
        costs.append(elapsed / done)
    return statistics.median(costs)


def guarded(name: str, probe: Callable[[], float]) -> Optional[float]:
    """The probe's value, or None with a warning if its target is gone."""
    try:
        return probe()
    except MISSING as exc:
        print(f"warning: probe {name} has no target: {exc!r}",
              file=sys.stderr)
        return None


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def engine_events(seed: int) -> Chunk:
    from repro.sim.engine import Engine
    rng = random.Random(derive_seed(seed, "bench/probe/engine"))
    delays = [rng.uniform(0.0, 50.0) for _ in range(1000)]
    engine = Engine()

    def noop() -> None:
        pass

    def chunk() -> int:
        handles = [engine.schedule(delay, noop) for delay in delays]
        for handle in handles[::10]:
            handle.cancel()
        engine.run()
        return len(delays)
    return chunk


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------
def frame_checksum(body_bytes: int, seed: int) -> Chunk:
    from repro.net.frames import Frame, FrameKind
    from repro.net.transport import Segment
    body = "x" * body_bytes

    def chunk() -> int:
        for i in range(200):
            segment = Segment(uid=("probe", i), src_node=1, dst_node=2,
                              body=body)
            frame = Frame(FrameKind.DATA, 1, 2, segment, body_bytes + 32)
            if not frame.checksum_ok():
                raise AssertionError("fresh frame failed its checksum")
        return 200
    return chunk


def medium_frames(csma: bool, seed: int) -> Chunk:
    from repro.net.ethernet import CsmaEthernet
    from repro.net.frames import Frame, FrameKind
    from repro.net.media import NetworkInterface, PerfectBroadcast
    from repro.sim.engine import Engine
    from repro.sim.rng import RngStreams
    engine = Engine()
    if csma:
        medium = CsmaEthernet(engine, RngStreams(seed))
    else:
        medium = PerfectBroadcast(engine)
    got = [0]

    def on_frame(frame) -> None:
        got[0] += 1
    stations = [medium.attach(NetworkInterface(node, on_frame))
                for node in (1, 2, 3)]

    def chunk() -> int:
        # two stations start a frame each in the same slot (on CSMA
        # they collide and back off); the bus drains before the next
        got[0] = 0
        for i in range(100):
            for station in stations[:2]:
                station.send(Frame(FrameKind.DATA, station.node_id, 3,
                                   ("probe", i), 160))
            engine.run()
        if got[0] != 200:
            raise AssertionError(f"medium delivered {got[0]} of 200")
        return 200
    return chunk


def transport_messages(seed: int) -> Chunk:
    from repro.net.media import PerfectBroadcast
    from repro.net.transport import Transport
    from repro.sim.engine import Engine
    engine = Engine()
    medium = PerfectBroadcast(engine)
    got = [0]

    def on_receive(segment) -> None:
        got[0] += 1
    sender = Transport(engine, medium, 1, on_receive)
    Transport(engine, medium, 2, on_receive)
    serial = [0]

    def chunk() -> int:
        got[0] = 0
        for _ in range(200):
            serial[0] += 1
            sender.send(2, ("probe", serial[0]), 128, ("probe", serial[0]))
        engine.run()
        if got[0] != 200:
            raise AssertionError(f"transport delivered {got[0]} of 200")
        return 200
    return chunk


# ----------------------------------------------------------------------
# demos
# ----------------------------------------------------------------------
def local_messages(seed: int) -> Chunk:
    from repro import System, SystemConfig
    from programs import CLIENT_IMAGE, SERVER_IMAGE, Tally, make_programs
    plan = tuple((1 + i % 7, 128, 128) for i in range(100))
    pairs = 200
    live: Dict[str, object] = {}

    def boot() -> None:
        system = System(SystemConfig(nodes=1, publishing=False))
        tally = Tally(lambda: system.engine.now, (plan,) * pairs)
        client, server = make_programs(tally)
        system.registry.register(CLIENT_IMAGE, client)
        system.registry.register(SERVER_IMAGE, server)
        system.boot()
        live.update(system=system, tally=tally, next=0)

    def chunk() -> int:
        # one more co-located pair on the booted node per chunk
        if not live or live["next"] == pairs:
            boot()
        system, tally, k = live["system"], live["tally"], live["next"]
        live["next"] = k + 1
        pid = system.spawn_program(SERVER_IMAGE, args=(k,), node=1)
        system.spawn_program(CLIENT_IMAGE, args=(k, tuple(pid)), node=1)
        for _ in range(100):
            if tally.replies[k] == len(plan):
                return 2 * len(plan)
            system.run(1_000.0)
        raise AssertionError("co-located round trips did not finish")
    return chunk


# ----------------------------------------------------------------------
# publishing.store
# ----------------------------------------------------------------------
def store_records(replay: bool, seed: int) -> Chunk:
    from repro import Message, MessageId, ProcessId
    from repro.publishing.database import CheckpointEntry, ProcessRecord
    src, dst = ProcessId(1, 5), ProcessId(2, 5)
    messages = [Message(MessageId(src, i), src, dst, 0, 0,
                        ("req", i, i, 128)) for i in range(1, 2001)]

    def fill() -> "ProcessRecord":
        record = ProcessRecord(pid=dst, node=2, image="bench/server")
        for index, message in enumerate(messages):
            record.record_message(message, index)
            if index % 200 == 199:
                # a checkpoint that covers all but the last 100
                record.apply_checkpoint(CheckpointEntry(
                    data={}, consumed=index - 99, dtk_processed=0,
                    send_seq=0, pages=4, stored_at=0.0))
        return record

    if not replay:
        def chunk() -> int:
            fill()
            return len(messages)
        return chunk
    record = fill()

    def chunk() -> int:
        cursor, count = record.replay_cursor(verify=True), 0
        while cursor.next() is not None:
            count += 1
        if count == 0:
            raise AssertionError("nothing left to replay")
        return count
    return chunk


# ----------------------------------------------------------------------
# obs
# ----------------------------------------------------------------------
def obs_emit(enabled: bool, seed: int) -> Chunk:
    from repro.obs import Observability
    obs = Observability(lambda: 0.0)
    scope = obs.scope("probe")
    if not enabled:
        obs.bus.disable("probe")

    def chunk() -> int:
        for i in range(1000):
            scope.emit("probe", "subject", index=i)
        obs.bus.clear()
        return 1000
    return chunk


def obs_on_off_ratio(seed: int, passes: int) -> float:
    """Host time of a half-size ``publish_steady`` timed section with
    every scope enabled, over the same with the bus disabled."""
    import workloads
    spec = workloads.BY_NAME["publish_steady"]
    inputs = workloads.make_inputs(spec, seed, scale=0.5)
    seconds = {True: [], False: []}
    for _ in range(passes):
        for enabled in (True, False):
            world = workloads.World(spec, inputs)
            for system in world.systems:
                system.obs.bus.enabled = enabled
            started = time.perf_counter()
            world.drive()
            seconds[enabled].append(time.perf_counter() - started)
    return (statistics.median(seconds[True])
            / statistics.median(seconds[False]))


# ----------------------------------------------------------------------
# parallel
# ----------------------------------------------------------------------
def wire_frames(seed: int) -> Chunk:
    from repro.net.frames import Frame, FrameKind
    from repro.net.transport import Segment
    from repro.parallel.wire import decode_frame_batch, encode_frame_batch
    batch = [(float(i), f"gw{9000 + i % 4}", i,
              Frame(FrameKind.DATA, 1, 101,
                    Segment(("probe", i), 1, 101, ("req", i, i, 128)), 160),
              i % 4) for i in range(64)]

    def chunk() -> int:
        if len(decode_frame_batch(encode_frame_batch(batch))) != 64:
            raise AssertionError("wire batch lost frames")
        return 64
    return chunk


def pooled_vs_serial(seed: int, repeats: int) -> float:
    """``run_serial`` wall over ``run_pooled`` wall on 16 clusters; below
    1 the pool is slower than one process."""
    from repro.parallel import DesScenario, run_pooled, run_serial
    scenario = DesScenario(clusters=16, messages=12, duration_ms=2500.0,
                           master_seed=seed % (1 << 31))
    workers = min(2, os.cpu_count() or 1)
    serial, pooled = [], []
    for _ in range(repeats):
        one = run_serial(scenario)
        many = run_pooled(scenario, workers)
        if one["digest"] != many["digest"]:
            raise AssertionError("pooled digest differs from serial")
        serial.append(one["wall_ms"])
        pooled.append(many["wall_ms"])
    return statistics.median(serial) / statistics.median(pooled)


# ----------------------------------------------------------------------
#: metric name -> (chunk factory, unit, units per second)
TIMED = {
    "sim.probe.us_per_event": (engine_events, "us", 1e6),
    "net.frames.probe.us_per_checksum_128B":
        (partial(frame_checksum, 128), "us", 1e6),
    "net.frames.probe.us_per_checksum_4KB":
        (partial(frame_checksum, 4096), "us", 1e6),
    "net.media.probe.us_per_frame_broadcast":
        (partial(medium_frames, False), "us", 1e6),
    "net.media.probe.us_per_frame_csma":
        (partial(medium_frames, True), "us", 1e6),
    "net.transport.probe.us_per_msg": (transport_messages, "us", 1e6),
    "demos.probe.us_per_local_msg": (local_messages, "us", 1e6),
    "publishing.store.probe.us_per_append":
        (partial(store_records, False), "us", 1e6),
    "publishing.store.probe.us_per_replayed":
        (partial(store_records, True), "us", 1e6),
    "obs.probe.ns_per_emit_enabled": (partial(obs_emit, True), "ns", 1e9),
    "obs.probe.ns_per_emit_disabled": (partial(obs_emit, False), "ns", 1e9),
    "parallel.probe.wire_us_per_frame": (wire_frames, "us", 1e6),
}

#: metric name -> (function of the seed, which direction is better)
RATIOS = {
    "obs.on_off_ratio": (obs_on_off_ratio, "lower"),
    "parallel.probe.pooled_vs_serial": (pooled_vs_serial, "higher"),
}

#: (name, unit, which direction is better), in reporting order
METRICS = tuple((name, unit, "lower") for name, (_, unit, _) in TIMED.items()
                ) + tuple((name, "ratio", better)
                          for name, (_, better) in RATIOS.items())


def run_all(seed: int, budget_s: float,
            ratio_repeats: int) -> Dict[str, Optional[float]]:
    """Every probe once. ``budget_s`` is the length of one timed
    stretch; the two ratio probes alternate their sides
    ``ratio_repeats`` times."""
    results: Dict[str, Optional[float]] = {}
    for name, (factory, _, scale) in TIMED.items():
        results[name] = guarded(name, lambda: scale * measure(
            factory(seed), budget_s))
    for name, (ratio, _) in RATIOS.items():
        results[name] = guarded(name, lambda: ratio(seed, ratio_repeats))
    return results
