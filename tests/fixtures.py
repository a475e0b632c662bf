"""Shared test programs and scenario helpers.

Importable both by the test suite (pytest puts ``tests/`` on
``sys.path``, so ``from fixtures import ...`` and the conftest
re-exports work) and by ``benchmarks/_support.py`` — this module must
stay pytest-free so the benchmarks don't drag the plugin machinery in.

The programs here are deliberately simple but exercise real behaviour:
``CounterProgram`` accumulates state (so checkpoint/replay equivalence
is checkable), ``DriverProgram`` generates request/reply traffic, and
``EchoProgram`` bounces messages. ``wire_driver`` forges the one link a
test needs to bootstrap traffic without the full NLS rendezvous dance.
"""

from __future__ import annotations

import sys

from repro import Program, System
from repro.demos.ids import ProcessId
from repro.demos.links import Link


def crc16_bitwise(data: bytes) -> int:
    """CRC-16/CCITT (initial value 0xFFFF) over ``data``, one bit at a
    time: the oracle ``repro.net.frames.crc16`` is checked against."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def count_calls(fn, within=None) -> int:
    """Call events (Python and C) raised while ``fn()`` runs: the
    deterministic stand-in for host time that lets tier-1 assert how
    work scales without reading a clock. ``within`` narrows the count
    to calls of, and made from, that module's own code."""
    path = within.__file__ if within is not None else None
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call") and (
                path is None or frame.f_code.co_filename == path):
            calls += 1

    sys.setprofile(on_event)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class CounterProgram(Program):
    """Accumulates 'add' values, replies with the running total."""

    def __init__(self):
        super().__init__()
        self.total = 0
        self.seen = []

    def on_message(self, ctx, m):
        if isinstance(m.body, tuple) and m.body and m.body[0] == "add":
            self.total += m.body[1]
            self.seen.append(m.body[1])
            if m.passed_link_id is not None:
                ctx.send(m.passed_link_id, ("total", self.total))


class DriverProgram(Program):
    """Sends 'add i' for i = 1..n, one per reply received.

    The target pid arrives as a creation argument, so the program's
    whole behaviour — including the link it forges at setup — is
    deterministic on its image + args + messages, making it recoverable
    from its initial image.
    """

    def __init__(self, target=None, n=10):
        super().__init__()
        self.target = tuple(target) if target is not None else None
        self.n = n
        self.i = 0
        self.replies = []
        self.target_link = None

    def attach_kernel(self, kernel):
        self._ctx_kernel = kernel

    def setup(self, ctx):
        if self.target is None:
            return
        pcb = self._ctx_kernel.processes[ctx.pid]
        self.target_link = self._ctx_kernel.forge_link(
            pcb, Link(dst=ProcessId(*self.target)))
        self._send_next(ctx)

    def _send_next(self, ctx):
        if self.target_link is not None and self.i < self.n:
            self.i += 1
            reply = ctx.create_link(channel=0, code=1)
            ctx.send(self.target_link, ("add", self.i), pass_link_id=reply)

    def on_message(self, ctx, m):
        if isinstance(m.body, tuple) and m.body and m.body[0] == "total":
            self.replies.append(m.body[1])
            self._send_next(ctx)
        elif isinstance(m.body, tuple) and m.body and m.body[0] == "kick":
            self._send_next(ctx)


class EchoProgram(Program):
    """Echoes any body back over the passed link."""

    def __init__(self):
        super().__init__()
        self.echoed = 0

    def on_message(self, ctx, m):
        if m.passed_link_id is not None:
            self.echoed += 1
            ctx.send(m.passed_link_id, ("echo", m.body))


def register_test_programs(system: System) -> None:
    system.registry.register("test/counter", CounterProgram)
    system.registry.register("test/driver", DriverProgram)
    system.registry.register("test/echo", EchoProgram)


def wire_driver(system: System, driver_pid: ProcessId,
                target_pid: ProcessId) -> None:
    """Forge the driver→target link and kick the driver into action."""
    node = system.nodes[driver_pid.node]
    pcb = node.kernel.processes[driver_pid]
    pcb.program.target_link = node.kernel.forge_link(pcb, Link(dst=target_pid))
    kick = node.kernel.forge_link(pcb, Link(dst=driver_pid))
    node.kernel.syscall_send(pcb, kick, ("kick",), None, 32)


def expected_totals(n: int):
    """The totals a correct run produces: 1, 3, 6, 10, ..."""
    return [sum(range(1, k + 1)) for k in range(1, n + 1)]


def run_counter_scenario(system: System, n: int = 20,
                         counter_node: int = 2, driver_node: int = 1):
    """Spawn counter+driver (pre-wired via args); return their pids."""
    counter_pid = system.spawn_program("test/counter", node=counter_node)
    driver_pid = system.spawn_program("test/driver",
                                      args=(tuple(counter_pid), n),
                                      node=driver_node)
    system.run(200)
    return counter_pid, driver_pid
