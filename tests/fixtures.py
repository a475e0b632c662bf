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

import random
import sys
from typing import Any, List, Optional, Set, Tuple

from repro import Program, System
from repro.demos.ids import ProcessId
from repro.demos.links import Link
from repro.errors import RecorderError
from repro.net.frames import BROADCAST
from repro.sim.rng import RngStreams, derive_seed


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
    to calls of, and made from, that module's own code; a tuple of
    functions narrows it to calls of those functions."""
    codes = ({function.__code__ for function in within}
             if isinstance(within, tuple) else None)
    path = within.__file__ if within is not None and codes is None else None
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if codes is not None:
            calls += event == "call" and frame.f_code in codes
        elif event in ("call", "c_call") and (
                path is None or frame.f_code.co_filename == path):
            calls += 1

    sys.setprofile(on_event)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def scan_takers(medium, frame):
    """Who takes ``frame`` on ``medium``, found the way every medium
    found it before the station table: one pass over the whole bus, in
    attach order. Returns ``(stations handed the frame, interface whose
    on_delivered hears its fate or None)`` — the oracle the table is
    checked against."""
    takers = []
    for iface in medium.interfaces:
        if iface.is_recorder or not iface.up:
            continue
        if frame.dst_node == BROADCAST:
            if iface.node_id == frame.src_node:
                continue
        elif iface.node_id != frame.dst_node and not (
                iface.accept_extra is not None
                and iface.accept_extra(frame.dst_node)):
            continue
        takers.append(iface)
    sender = None
    if medium.provides_delivery_ack:
        sender = next((iface for iface in medium.interfaces
                       if iface.node_id == frame.src_node
                       and iface.on_delivered is not None), None)
    return takers, sender


def reference_apply(plan, frame, receiver_node):
    """``FaultPlan.apply`` as it was before it learned to skip what is
    not configured and to keep each receiver's draw: every attempt walks
    the rules, copies the targeted faults and, given streams, looks its
    receiver's stream up by name. Works on ``plan``'s own state, so a
    second plan driven by this must end up equal to one driven by
    ``apply``."""
    for rule in plan._rules:
        if rule.predicate(frame, receiver_node):
            rule.hits += 1
            if rule.action == "lose":
                plan.losses.inc()
                if rule.name.startswith("partition:"):
                    plan.partition_drops.inc()
                return None
            return plan._corrupted_copy(frame)
    for fault in list(plan._targeted):
        if fault.remaining > 0 and fault.predicate(frame, receiver_node):
            fault.remaining -= 1
            if fault.remaining == 0:
                plan._targeted.remove(fault)
            if fault.action == "lose":
                plan.losses.inc()
                return None
            return plan._corrupted_copy(frame)
    if plan.rng is not None:
        stream = plan.rng.stream(f"faults/{receiver_node}")
        if plan.loss_rate > 0 and stream.random() < plan.loss_rate:
            plan.losses.inc()
            return None
        if (plan.corruption_rate > 0
                and stream.random() < plan.corruption_rate):
            return plan._corrupted_copy(frame)
    return frame


class FlatLogged:
    """One logged message in the naive store: a plain mutable record."""

    __slots__ = ("message", "arrival_index", "invalid")

    def __init__(self, message: Any, arrival_index: int):
        self.message = message
        self.arrival_index = arrival_index
        self.invalid = False


class FlatProcessLog:
    """The naive flat-list process log: the shape the log-structured
    recorder store replaced, kept as its oracle.
    ``test_store_equivalence.py`` drives identical operation sequences
    through this and ``ProcessRecord`` and requires identical answers;
    ``benchmarks/test_recorder_store_scaling.py`` times the two. Do not
    optimize it: its slowness is the point.

    Semantics are byte-identical to
    :class:`repro.publishing.database.ProcessRecord` — consumption
    order, the advisory-mismatch error, the cumulative-checkpoint
    invalidation rule and its jump-ahead quirk — but every query pays
    the naive price: ``consumed_ids`` re-simulates the queue from
    process creation, ``messages_to_replay`` rescans the whole arrivals
    list, and nothing is ever reclaimed.
    """

    def __init__(self) -> None:
        self.arrivals: List[FlatLogged] = []
        self.advisories: List[Tuple[Any, Any]] = []
        self._ckpt_consumed_done = 0
        self._ckpt_ctrl_done = 0

    def record_message(self, message: Any, arrival_index: int) -> FlatLogged:
        lm = FlatLogged(message, arrival_index)
        self.arrivals.append(lm)
        return lm

    def add_advisory(self, read_id: Any, head_id: Any) -> None:
        self.advisories.append((read_id, head_id))

    # ------------------------------------------------------------------
    def _simulate(self, target: int) -> List[FlatLogged]:
        """Re-run the queue simulation from scratch up to ``target``
        consumptions (or queue exhaustion); returns the consumed
        records in consumption order."""
        queue = [lm for lm in self.arrivals
                 if not lm.message.deliver_to_kernel
                 and not lm.message.recovery_marker]
        consumed: List[FlatLogged] = []
        cursor = 0
        while len(consumed) < target and queue:
            if (cursor < len(self.advisories)
                    and self.advisories[cursor][1] == queue[0].message.msg_id):
                read_id = self.advisories[cursor][0]
                for index, lm in enumerate(queue):
                    if lm.message.msg_id == read_id:
                        del queue[index]
                        break
                else:
                    raise RecorderError(
                        f"advisory for {read_id} does not match the log")
                cursor += 1
            else:
                lm = queue.pop(0)
            consumed.append(lm)
        return consumed

    def consumed_ids(self, consumed_count: int) -> Set[Any]:
        return {lm.message.msg_id for lm in self._simulate(consumed_count)}

    def apply_checkpoint(self, consumed: int, dtk_processed: int = 0) -> int:
        """Invalidate the messages a checkpoint's state already covers;
        counts are cumulative, and ordinals first covered by an earlier
        checkpoint are never revisited (the jump-ahead quirk)."""
        order = self._simulate(consumed)
        invalidated = 0
        start = self._ckpt_consumed_done
        for ordinal, lm in enumerate(order):
            if ordinal < start:
                continue
            if not lm.invalid:
                lm.invalid = True
                invalidated += 1
        self._ckpt_consumed_done = max(start, consumed)
        start = self._ckpt_ctrl_done
        controls = [lm for lm in self.arrivals if lm.message.deliver_to_kernel]
        for ordinal, lm in enumerate(controls):
            if ordinal >= dtk_processed:
                break
            if ordinal < start:
                continue
            if not lm.invalid:
                lm.invalid = True
                invalidated += 1
        self._ckpt_ctrl_done = max(start, dtk_processed)
        return invalidated

    def messages_to_replay(self) -> List[FlatLogged]:
        """Full rescan: every valid record, in arrival order."""
        return [lm for lm in self.arrivals if not lm.invalid]

    def first_valid_id(self) -> Optional[Any]:
        for lm in self.arrivals:
            if not lm.invalid and not lm.message.recovery_marker:
                return lm.message.msg_id
        return None

    def valid_message_bytes(self) -> int:
        return sum(lm.message.size_bytes for lm in self.arrivals
                   if not lm.invalid)


class _CountingRandom(random.Random):
    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


class CountingStreams(RngStreams):
    """``RngStreams`` that counts its lookups (``lookups``) and every
    stream's ``random()`` draws (``draws()``); same seeds, same values."""

    def __init__(self, master_seed=1983):
        super().__init__(master_seed)
        self.lookups = 0

    def stream(self, name):
        self.lookups += 1
        if name not in self._streams:
            self._streams[name] = _CountingRandom(
                derive_seed(self.master_seed, name))
        return self._streams[name]

    def draws(self):
        """Stream name -> draws made, for every stream drawn from."""
        return {name: stream.draws
                for name, stream in self._streams.items() if stream.draws}


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
