"""The fault actions a chaos campaign can schedule.

Each action is a small frozen dataclass: *when* it fires (``at_ms``,
absolute simulated time) and *what* it does to the :class:`~repro.System`
(``apply``). Actions are declarative, so campaigns can be generated by
the monkey or written inline — and two runs of the same campaign inject
bit-identical faults at bit-identical times.

Every action is **idempotent against state races**: crashing a node that
is already down, or restarting one that is already up, is a no-op that
reports ``skipped`` — a campaign that overlaps the recovery manager's
own restarts stays well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.demos.ids import ProcessId
from repro.errors import ReproError


@dataclass(frozen=True)
class ChaosAction:
    """Base class: one scheduled fault."""

    at_ms: float

    #: short machine name; doubles as the event category on the bus
    kind = "noop"

    def apply(self, system) -> bool:
        """Inject the fault; return False if skipped (state race)."""
        raise NotImplementedError

    def subject(self) -> str:
        """The event subject (what the fault targets)."""
        return "system"

    def detail(self) -> Dict[str, Any]:
        """Extra event fields (everything but ``at_ms``)."""
        return {k: v for k, v in self.__dict__.items() if k != "at_ms"}


@dataclass(frozen=True)
class CrashNode(ChaosAction):
    """Fail a whole processor; the watchdog notices and (per the
    system's reboot policy) recovery restarts it."""

    node: int = 0

    kind = "crash_node"

    def apply(self, system) -> bool:
        target = system.nodes.get(self.node)
        if target is None or not target.up:
            return False
        system.crash_node(self.node)
        return True

    def subject(self) -> str:
        return f"node{self.node}"


@dataclass(frozen=True)
class RestartNode(ChaosAction):
    """Operator-style reboot of a down processor (useful with
    ``reboot_policy='none'`` campaigns)."""

    node: int = 0

    kind = "restart_node"

    def apply(self, system) -> bool:
        target = system.nodes.get(self.node)
        if target is None or target.up:
            return False
        system.restart_node(self.node)
        return True

    def subject(self) -> str:
        return f"node{self.node}"


@dataclass(frozen=True)
class CrashProcess(ChaosAction):
    """Halt one process; the kernel reports it and recovery begins."""

    pid: Tuple[int, int] = (0, 0)

    kind = "crash_process"

    def apply(self, system) -> bool:
        try:
            system.crash_process(ProcessId(*self.pid))
        except ReproError:
            return False       # already gone (a node crash got it first)
        return True

    def subject(self) -> str:
        return str(ProcessId(*self.pid))


@dataclass(frozen=True)
class CrashRecorder(ChaosAction):
    """Full recorder outage: published traffic suspends (§3.3.4)."""

    kind = "crash_recorder"

    def apply(self, system) -> bool:
        if system.recorder is None or not system.recorder.up:
            return False
        system.crash_recorder()
        return True

    def subject(self) -> str:
        return "recorder"


@dataclass(frozen=True)
class RestartRecorder(ChaosAction):
    """Recorder restart + the §3.3.4 state-query reconciliation."""

    kind = "restart_recorder"

    def apply(self, system) -> bool:
        if system.recorder is None or system.recorder.up:
            return False
        system.restart_recorder()
        return True

    def subject(self) -> str:
        return "recorder"


@dataclass(frozen=True)
class Partition(ChaosAction):
    """Cut the network into node groups for ``duration_ms`` (standing
    when None); frames crossing the cut are dropped."""

    groups: Tuple[Tuple[int, ...], ...] = ()
    duration_ms: Optional[float] = None

    kind = "partition"

    def apply(self, system) -> bool:
        rule = system.partition(*self.groups)
        if self.duration_ms is not None:
            system.engine.schedule(self.duration_ms, system.heal, rule)
        return True

    def subject(self) -> str:
        return "net"

    def detail(self) -> Dict[str, Any]:
        return {"groups": [sorted(g) for g in self.groups],
                "duration_ms": self.duration_ms}


@dataclass(frozen=True)
class DiskStall(ChaosAction):
    """Freeze the recorder's disk array (controller stall): operations
    queue but none starts until the stall lifts."""

    duration_ms: float = 100.0

    kind = "disk_stall"

    def apply(self, system) -> bool:
        if system.recorder is None:
            return False
        system.stall_disks(self.duration_ms)
        return True

    def subject(self) -> str:
        return "recorder"


@dataclass(frozen=True)
class DiskSlowdown(ChaosAction):
    """Degrade the recorder's disks by ``factor`` for ``duration_ms``
    (or indefinitely when None) — the aging-spindle scenario."""

    factor: float = 4.0
    duration_ms: Optional[float] = None

    kind = "disk_slowdown"

    def apply(self, system) -> bool:
        if system.recorder is None:
            return False
        system.slow_disks(self.factor)
        if self.duration_ms is not None:
            system.engine.schedule(self.duration_ms, system.slow_disks, 1.0)
        return True

    def subject(self) -> str:
        return "recorder"


@dataclass(frozen=True)
class GossipLoss(ChaosAction):
    """Inject seed-pure loss on the recording/repair path: published
    frames miss every recorder, and gossip pull/supply datagrams drop,
    each with probability ``rate`` — for ``duration_ms``, or standing
    when None. With gossip enabled the holes heal by pull rounds; with
    strict recorder enforcement the senders retransmit instead (the
    recorder-only arm of the reliability frontier)."""

    rate: float = 0.2
    duration_ms: Optional[float] = None

    kind = "gossip_loss"

    def apply(self, system) -> bool:
        if system.recorder is None:
            return False
        loss = system.install_reception_loss(self.rate)
        if self.duration_ms is not None:
            system.engine.schedule(self.duration_ms, loss.set_rate,
                                   system.config.gossip_loss_rate)
        return True

    def subject(self) -> str:
        return "recorder"


def _recorders_up(system, node_ids: Tuple[int, ...]) -> List:
    """The live recorders an adversary action targets: those whose node
    ids it names, or the primary recorder when it names none."""
    if node_ids:
        targets = [r for r in system.recorders if r.config.node_id in node_ids]
    else:
        targets = [system.recorder] if system.recorder is not None else []
    return [r for r in targets if r.up]


@dataclass(frozen=True)
class ByzantineRecorderFault(ChaosAction):
    """Turn recorders Byzantine: with probability ``rate`` each
    published record is dropped, duplicated, corrupted, reordered or
    bit-rotted on the log while acknowledgements keep flowing — the
    silent-corruption fault class the 1983 paper never modeled.
    ``recorders`` names the targets by node id (empty: the primary);
    each draws from its own ``adversary/recorder/<node_id>`` stream.
    The window closes after ``duration_ms`` (rate drops to 0; the stages
    stay armed so the fault tally survives for the report)."""

    modes: Tuple[str, ...] = ("drop", "duplicate", "corrupt", "reorder")
    rate: float = 0.25
    duration_ms: Optional[float] = None
    recorders: Tuple[int, ...] = ()

    kind = "byzantine_recorder"

    def apply(self, system) -> bool:
        targets = _recorders_up(system, self.recorders)
        if not targets:
            return False
        from repro.chaos.adversary import ByzantineRecorder
        for recorder in targets:
            node_id = recorder.config.node_id
            stage = ByzantineRecorder(
                system.rng.stream(f"adversary/recorder/{node_id}"),
                modes=self.modes, rate=self.rate, obs=recorder.obs,
                recorder_id=node_id)
            recorder.stages.append(stage)
            if self.duration_ms is not None:
                system.engine.schedule(self.duration_ms, stage.set_rate, 0.0)
        return True

    def subject(self) -> str:
        return "recorder"

    def detail(self) -> Dict[str, Any]:
        return {"modes": list(self.modes), "rate": self.rate,
                "duration_ms": self.duration_ms,
                "recorders": list(self.recorders)}
