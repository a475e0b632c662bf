"""A self-contained workload + scenario runner for chaos campaigns.

The CLI (``python -m repro chaos``) needs traffic to break: this module
carries a counter/driver request-reply pair (the same shape the test
suite uses) so campaigns exercise real guaranteed messages, recorder
logging, checkpoints and replay — without importing anything from the
tests.

:func:`run_scenario` is the one-call driver: build a system from a
:class:`~repro.system.SystemConfig`, spawn the workload, arm the
campaign, run to its last action, settle, and return the report. A
scenario is a config plus a campaign.

Beside the pair sit its variants that drive the paper's own mechanisms
in the ``pipeline`` rig: a channel-selective counter (§4.4.2), and one
that creates, re-links, stops and resumes its driver through its
kernel process (§4.4.3, Figure 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.chaos.campaign import (
    CampaignReport,
    ChaosCampaign,
    InvariantCheck,
    build_report,
    check_invariants,
)
from repro.demos.ids import ProcessId, kernel_pid
from repro.demos.links import Link
from repro.demos.process import Program
from repro.errors import SettleError
from repro.system import System, SystemConfig

CHAOS_COUNTER_IMAGE = "chaos/counter"
CHAOS_DRIVER_IMAGE = "chaos/driver"
URGENT_DRIVER_IMAGE = "chaos/urgent_driver"
CHANNEL_WORKER_IMAGE = "chaos/channel_worker"
CONTROLLER_IMAGE = "chaos/controller"
#: the channel a :class:`ChannelWorker` reads first
URGENT_CHANNEL = 9


class ChaosCounter(Program):
    """Accumulates 'add' values; replies with the running total.

    State is a pure function of the messages received, so after any
    crash + replay the totals must match a fault-free run exactly.
    """

    def __init__(self):
        super().__init__()
        self.total = 0
        self.seen: List[int] = []

    def on_message(self, ctx, m):
        if isinstance(m.body, tuple) and m.body and m.body[0] == "add":
            self.total += m.body[1]
            self.seen.append(m.body[1])
            if m.passed_link_id is not None:
                ctx.send(m.passed_link_id, ("total", self.total))


class ChaosDriver(Program):
    """Sends 'add i' for i = 1..n, one per reply received."""

    #: the target's channel the requests go on
    channel = 0

    def __init__(self, target=None, n=10):
        super().__init__()
        self.target = tuple(target) if target is not None else None
        self.n = n
        self.i = 0
        self.replies: List[int] = []
        self.target_link = None

    def attach_kernel(self, kernel):
        self._ctx_kernel = kernel

    def setup(self, ctx):
        if self.target is None:
            return
        pcb = self._ctx_kernel.processes[ctx.pid]
        self.target_link = self._ctx_kernel.forge_link(
            pcb, Link(dst=ProcessId(*self.target), channel=self.channel))
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


class UrgentDriver(ChaosDriver):
    """A :class:`ChaosDriver` that sends on :data:`URGENT_CHANNEL`."""

    channel = URGENT_CHANNEL


class ChannelWorker(ChaosCounter):
    """A counter that reads only :data:`URGENT_CHANNEL` until it has
    taken ``OPEN_AFTER`` requests, then every channel: each urgent
    request is read past a request queued ahead of it (§4.4.2)."""

    #: the requests taken before every channel opens
    OPEN_AFTER = 2

    def __init__(self):
        super().__init__()
        self._channels = (URGENT_CHANNEL,)

    def on_message(self, ctx, m):
        super().on_message(ctx, m)
        if len(self.seen) == self.OPEN_AFTER:
            ctx.set_channels()


class ProcessController(ChaosCounter):
    """A counter that asks its kernel process for a :class:`ChaosDriver`
    child aimed back at itself, moves a link to itself into the child's
    table (Figure 4.5's MOVELINK), and stops the child around its first
    answer, so that the answer waits in a stopped queue. Each control
    goes over the DELIVERTOKERNEL link the kernel process returned and
    runs as the child (§4.4.3)."""

    #: the code of the link MOVELINK moves
    MOVED_CODE = 7
    #: the requests the child driver sends
    REQUESTS = 4

    def __init__(self):
        super().__init__()
        self.child = None
        self.control = None
        self.stopped = False

    def attach_kernel(self, kernel):
        self._ctx_kernel = kernel

    def setup(self, ctx):
        kernel = self._ctx_kernel
        to_kp = kernel.forge_link(kernel.processes[ctx.pid],
                                  Link(dst=kernel_pid(ctx.node)))
        ctx.send(to_kp, ("create", CHAOS_DRIVER_IMAGE,
                         (tuple(ctx.pid), self.REQUESTS), True, 2),
                 pass_link_id=ctx.create_link())

    def on_message(self, ctx, m):
        if m.body[0] == "created":
            self.child, self.control = tuple(m.body[1]), m.passed_link_id
            ctx.send(self.control, (
                "movelink", ctx.create_link(code=self.MOVED_CODE),
                tuple(ctx.pid)))
            return
        stop = self.control is not None and not self.stopped
        if stop:
            self.stopped = True
            ctx.send(self.control, ("stop",))
        super().on_message(ctx, m)
        if stop:
            ctx.send(self.control, ("resume",))


def register_chaos_programs(system: System) -> None:
    """Make the chaos workload images spawnable on ``system``."""
    for image, program in ((CHAOS_COUNTER_IMAGE, ChaosCounter),
                           (CHAOS_DRIVER_IMAGE, ChaosDriver),
                           (URGENT_DRIVER_IMAGE, UrgentDriver),
                           (CHANNEL_WORKER_IMAGE, ChannelWorker),
                           (CONTROLLER_IMAGE, ProcessController)):
        if not system.registry.known(image):
            system.registry.register(image, program)


def expected_total(n: int) -> int:
    """The final counter total a correct run must reach: 1+2+...+n."""
    return n * (n + 1) // 2


@dataclass
class ScenarioResult:
    """Everything a caller (CLI, CI gate, test) needs from one run."""

    system: System
    report: CampaignReport
    #: per-pair (driver_pid, counter_pid)
    pairs: List[Tuple[ProcessId, ProcessId]]
    #: per-pair final counter totals, in pair order
    totals: List[int]
    expected: int

    @property
    def ok(self) -> bool:
        return self.report.ok

    def event_stream(self) -> str:
        """The full ordered event stream, for replay-equivalence checks."""
        return self.system.obs.bus.to_jsonl()


def run_scenario(campaign: ChaosCampaign,
                 config: SystemConfig,
                 pairs: int = 3,
                 messages: int = 40,
                 ) -> ScenarioResult:
    """Run one campaign against a counter/driver workload on a system
    built from ``config``.

    Drivers live on the first node, counters spread over the remaining
    nodes (so node crashes hit counters and partitions cut request
    paths). Runs to the campaign's last action, then settles
    (:meth:`~repro.system.System.settle`) and reports. A run that does
    not settle fails the report's ``settled`` row and the rows of the
    state it names.

    The workload-correctness invariant — every counter ended at
    1+2+...+n exactly once — is appended to the report's checks.
    """
    system = System(config)
    register_chaos_programs(system)
    system.boot()

    spawned: List[Tuple[ProcessId, ProcessId]] = []
    node_ids = sorted(system.nodes)
    counter_nodes = node_ids[1:] or node_ids
    for k in range(pairs):
        counter_pid = system.spawn_program(
            CHAOS_COUNTER_IMAGE, node=counter_nodes[k % len(counter_nodes)])
        driver_pid = system.spawn_program(
            CHAOS_DRIVER_IMAGE, args=(tuple(counter_pid), messages),
            node=node_ids[0])
        spawned.append((driver_pid, counter_pid))
    system.run(200)

    campaign.arm(system)
    if campaign.horizon_ms > system.engine.now:
        system.run(campaign.horizon_ms - system.engine.now)
    try:
        system.settle()
        unsettled = None
    except SettleError as error:
        unsettled = InvariantCheck("settled", False, f"not quiet: {error}")

    totals: List[int] = []
    for _, counter_pid in spawned:
        program = system.program_of(counter_pid)
        totals.append(program.total if program is not None else -1)
    want = expected_total(messages)
    checks = check_invariants(system)
    if unsettled is not None:
        checks.append(unsettled)
    bad = [i for i, total in enumerate(totals) if total != want]
    checks.append(InvariantCheck(
        "workload_exact", not bad,
        (f"pairs {bad} ended at {[totals[i] for i in bad]} != {want}"
         if bad else f"all {pairs} counters reached {want}")))
    report = build_report(system, campaign, invariants=checks)
    return ScenarioResult(system=system, report=report, pairs=spawned,
                          totals=totals, expected=want)
