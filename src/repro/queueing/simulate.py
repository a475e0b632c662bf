"""Discrete-event cross-check of the queuing model.

The analytic solver assumes Poisson arrivals and exponential service;
this simulation makes the arrivals Poisson but keeps service times
*deterministic* (real packet processing and disk transfers are nearly
constant), so agreement between the two on utilization — which depends
only on first moments — validates the implementation, while queue
lengths may legitimately differ (M/D/1 queues are shorter than M/M/1).

Messages flow network → recorder CPU → disk, as in Figure 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro import costs
from repro.queueing.model import (OpenQueueingModel, disk_ms_per_byte_buffered,
                                  wire_ms)
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams


@dataclass
class SimulationResult:
    """Measured quantities from one simulation run."""

    utilizations: Dict[str, float]
    max_cpu_queue: int
    max_disk_queue: int
    max_buffer_bytes: int
    packets: int
    elapsed_ms: float
    #: mean time from network arrival to disk completion (pipeline
    #: response time), and per-station means
    mean_response_ms: float = 0.0
    station_response_ms: Dict[str, float] = None


class _Station:
    """A c-server FIFO station with deterministic service."""

    def __init__(self, engine: Engine, name: str, servers: int = 1):
        self.engine = engine
        self.name = name
        self.servers = servers
        self._server_free_at = [0.0] * servers
        self.busy_ms = 0.0
        self.queue_depth = 0
        self.max_queue_depth = 0
        self.queued_bytes = 0
        self.max_queued_bytes = 0
        self.completed = 0
        self.total_response_ms = 0.0

    def submit(self, service_ms: float, size_bytes: int,
               on_done=None) -> float:
        self.queue_depth += 1
        self.queued_bytes += size_bytes
        self.max_queue_depth = max(self.max_queue_depth, self.queue_depth)
        self.max_queued_bytes = max(self.max_queued_bytes, self.queued_bytes)
        idx = min(range(self.servers), key=lambda i: self._server_free_at[i])
        start = max(self.engine.now, self._server_free_at[idx])
        done = start + service_ms
        self._server_free_at[idx] = done
        self.busy_ms += service_ms
        self.completed += 1
        self.total_response_ms += done - self.engine.now
        self.engine.schedule_at(done, self._finish, size_bytes, on_done)
        return done

    def mean_response_ms(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.total_response_ms / self.completed

    def _finish(self, size_bytes: int, on_done) -> None:
        self.queue_depth -= 1
        self.queued_bytes -= size_bytes
        if on_done is not None:
            on_done()

    def utilization(self, elapsed_ms: float) -> float:
        if elapsed_ms <= 0:
            return 0.0
        return min(1.0, self.busy_ms / (elapsed_ms * self.servers))


def simulate_model(model: OpenQueueingModel, duration_ms: float = 60_000.0,
                   seed: int = 1983) -> SimulationResult:
    """Run the Figure 5.1 pipeline for ``duration_ms`` simulated ms."""
    engine = Engine()
    rng = RngStreams(seed)
    network = _Station(engine, "network")
    cpu = _Station(engine, "cpu")
    disk = _Station(engine, "disk", servers=model.disks)
    packets = 0
    pipeline_total = [0.0]
    pipeline_done = [0]
    buffered = model.buffered_writes

    def disk_service(size_bytes: int) -> float:
        if buffered:
            return disk_ms_per_byte_buffered() * size_bytes
        return costs.disk_op_ms(size_bytes)

    def arrive(size_bytes: int) -> None:
        nonlocal packets
        packets += 1
        born = engine.now
        network.submit(wire_ms(size_bytes), size_bytes,
                       on_done=lambda: after_network(size_bytes, born))

    def after_network(size_bytes: int, born: float) -> None:
        # the acknowledgment return path occupies the channel too
        network.submit(wire_ms(costs.ACK_BYTES), costs.ACK_BYTES)
        cpu.submit(costs.PACKET_CPU_MS, size_bytes,
                   on_done=lambda: disk.submit(
                       disk_service(size_bytes), size_bytes,
                       on_done=lambda: _retire(born)))

    def _retire(born: float) -> None:
        pipeline_total[0] += engine.now - born
        pipeline_done[0] += 1

    def source(name: str, rate_per_s: float, size_bytes: int):
        if rate_per_s <= 0:
            return
        mean_gap_ms = 1000.0 / rate_per_s

        def fire():
            if engine.now >= duration_ms:
                return
            arrive(size_bytes)
            engine.schedule(rng.exponential(f"arrivals/{name}", mean_gap_ms),
                            fire)
        engine.schedule(rng.exponential(f"arrivals/{name}", mean_gap_ms), fire)

    rates = model.class_rates_per_s()
    source("short", rates["short"], costs.SHORT_MSG_BYTES)
    source("long", rates["long"], costs.LONG_MSG_BYTES)
    source("checkpoint", rates["checkpoint"], costs.CHECKPOINT_MSG_BYTES)

    engine.run(until=duration_ms)
    return SimulationResult(
        utilizations={
            "network": network.utilization(duration_ms),
            "cpu": cpu.utilization(duration_ms),
            "disk": disk.utilization(duration_ms),
        },
        max_cpu_queue=cpu.max_queue_depth,
        max_disk_queue=disk.max_queue_depth,
        max_buffer_bytes=cpu.max_queued_bytes + disk.max_queued_bytes,
        packets=packets,
        elapsed_ms=duration_ms,
        mean_response_ms=(pipeline_total[0] / pipeline_done[0]
                          if pipeline_done[0] else 0.0),
        station_response_ms={
            "network": network.mean_response_ms(),
            "cpu": cpu.mean_response_ms(),
            "disk": disk.mean_response_ms(),
        },
    )
