"""Analytic solution of the open queuing network.

Each Figure 5.1 station is solved in isolation as an M/M/1 (network,
CPU) or M/M/c (disk array) queue — the standard product-form treatment
of an open network with Poisson sources, which is also what a RESQ2
numerical solution of this topology converges to. Outputs: utilization,
mean queue length, mean waiting time, and the buffer-occupancy estimate
behind the thesis's "at most 28 KB of buffer space" observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import QueueingModelError
from repro.queueing.model import OpenQueueingModel, StationLoad


@dataclass(frozen=True)
class StationSolution:
    """Steady-state quantities for one station."""

    name: str
    utilization: float
    mean_queue_length: float      # L, customers in system
    mean_wait_ms: float           # W, time in system
    saturated: bool


def _erlang_c(servers: int, offered: float) -> float:
    """Erlang-C probability that an arrival waits (M/M/c)."""
    if offered >= servers:
        return 1.0
    inv = 0.0
    term = 1.0
    for k in range(servers):
        if k > 0:
            term *= offered / k
        inv += term
    term *= offered / servers
    pw = term * servers / (servers - offered)
    return pw / (inv + pw)


def solve_station(load: StationLoad) -> StationSolution:
    """Solve one station as M/M/1 (c=1) or M/M/c."""
    rho = load.utilization
    lam = load.arrival_rate_per_s / 1000.0          # per ms
    mu = 1.0 / load.mean_service_ms                 # per server per ms
    c = load.servers
    if rho >= 1.0:
        return StationSolution(load.name, rho, float("inf"), float("inf"), True)
    if c == 1:
        length = rho / (1.0 - rho)
        wait = load.mean_service_ms / (1.0 - rho)
    else:
        offered = lam / mu
        pw = _erlang_c(c, offered)
        lq = pw * rho / (1.0 - rho)
        length = lq + offered
        wait = length / lam
    return StationSolution(load.name, rho, length, wait, False)


def solve_model(model: OpenQueueingModel) -> Dict[str, StationSolution]:
    """Solve every station of the model; name → solution."""
    return {s.name: solve_station(s) for s in model.stations()}


def recorder_buffer_bytes(model: OpenQueueingModel,
                          mean_message_bytes: float = 512.0) -> float:
    """Estimated buffer space needed in the recording node: messages
    queued at the CPU and disk stations. "We found no cases in which
    much buffer space was needed in the recording node (at most 28k
    bytes)" (§5.1)."""
    solutions = solve_model(model)
    waiting = 0.0
    for name in ("cpu", "disk"):
        sol = solutions[name]
        if sol.saturated:
            raise QueueingModelError(
                f"station {name} is saturated; buffer demand is unbounded")
        waiting += sol.mean_queue_length
    return waiting * mean_message_bytes
