"""Closing the loop: the full DEMOS/MP stack vs the Figure 5.1 model.

The thesis validates publishing twice — a queuing model (§5.1) and
DEMOS/MP measurements (§5.2) — but never cross-checks one against the
other. We can: drive the *complete* simulated system (kernels,
transport, medium, recorder, disks) with the mean operating point's
Poisson traffic, measure recorder CPU and disk utilization directly,
and compare against the abstract model's prediction for the same
offered load. Agreement means the Chapter 5 capacity numbers follow
from the Chapter 4 system, not just from the model's assumptions.
"""

import pytest

from repro import Program, System, SystemConfig
from repro.demos.ids import ProcessId, kernel_pid
from repro.demos.links import Link
from repro.queueing import OPERATING_POINTS, OpenQueueingModel
from repro.queueing.workload import LONG_BYTES, SHORT_BYTES

from conftest import once, print_table

DURATION_MS = 30_000.0
USERS = 6          # scaled-down population on 2 nodes


class Sink(Program):
    """Absorbs workload messages."""

    handler_cpu_ms = 0.1

    def __init__(self):
        super().__init__()
        self.received = 0

    def on_message(self, ctx, m):
        self.received += 1


def drive_full_system(point):
    system = System(SystemConfig(nodes=2, publish_path="media_tap"))
    system.registry.register("load/sink", Sink)
    system.boot()
    sinks = [system.spawn_program("load/sink", node=1 + i % 2)
             for i in range(USERS)]
    system.run(200)
    start = system.engine.now

    # Poisson sources injecting sends through the kernel, one stream
    # per (user, class), exactly the model's arrival process.
    def source(user, size_bytes, rate_per_s, stream):
        node = system.nodes[1 + user % 2]
        kernel = node.kernel
        sender = kernel.processes[kernel_pid(node.node_id)]
        target = sinks[user]
        link = kernel.forge_link(sender, Link(dst=target))
        mean_gap = 1000.0 / rate_per_s

        def fire():
            if system.engine.now - start >= DURATION_MS or not kernel.up:
                return
            kernel.syscall_send(sender, link, ("load",), None, size_bytes)
            system.engine.schedule(
                system.rng.exponential(stream, mean_gap), fire)
        system.engine.schedule(system.rng.exponential(stream, mean_gap), fire)

    for user in range(USERS):
        source(user, SHORT_BYTES, point.short_rate, f"short/{user}")
        source(user, LONG_BYTES, point.long_rate, f"long/{user}")

    cpu_before = system.recorder.cpu_busy_ms.value
    recorded_before = system.recorder.messages_recorded.value
    system.engine.run(until=start + DURATION_MS)
    elapsed = system.engine.now - start
    measured_cpu = (system.recorder.cpu_busy_ms.value - cpu_before) / elapsed
    disk_util = system.recorder.disks.utilization(elapsed)
    recorded = system.recorder.messages_recorded.value - recorded_before
    return measured_cpu, disk_util, recorded


def model_prediction(point):
    """The abstract model's utilizations for the same offered load
    (scaled to USERS users, message classes only — the live run takes
    no checkpoints)."""
    from dataclasses import replace
    pkt_rate = (point.short_rate + point.long_rate) * USERS       # per s
    cpu = pkt_rate * 0.8 / 1000.0
    byte_rate = (point.short_rate * SHORT_BYTES
                 + point.long_rate * LONG_BYTES) * USERS          # per s
    # The live recorder implements the §4.5 read-compact-write cycle:
    # each filled page costs one read plus one write.
    page_ms = 2.0 * (3.0 + 4096 / 2000.0)
    disk = byte_rate * (page_ms / 4096) / 1000.0
    return cpu, disk, pkt_rate


def test_full_stack_matches_queueing_model(benchmark):
    point = OPERATING_POINTS["mean"]
    measured_cpu, measured_disk, recorded = once(
        benchmark, drive_full_system, point)
    predicted_cpu, predicted_disk, pkt_rate = model_prediction(point)
    expected_msgs = pkt_rate * DURATION_MS / 1000.0
    print_table(
        f"Full DEMOS/MP stack vs Figure 5.1 model "
        f"({USERS} users, mean point, {DURATION_MS / 1000:.0f} s)",
        ["quantity", "model", "full stack"],
        [["recorder CPU utilization", f"{100 * predicted_cpu:.2f}%",
          f"{100 * measured_cpu:.2f}%"],
         ["disk utilization", f"{100 * predicted_disk:.2f}%",
          f"{100 * measured_disk:.2f}%"],
         ["messages published", f"{expected_msgs:.0f}", recorded]])
    # First-moment agreement: the full stack's recorder load matches
    # the abstract model within Poisson noise.
    assert measured_cpu == pytest.approx(predicted_cpu, rel=0.15)
    assert measured_disk == pytest.approx(predicted_disk, rel=0.25)
    assert recorded == pytest.approx(expected_msgs, rel=0.15)
