"""The fault actions a chaos campaign can schedule.

Each action is a small frozen dataclass: *when* it fires (``at_ms``,
absolute simulated time) and *what* it does to the :class:`~repro.System`
(``apply``). Actions are declarative and JSON-round-trippable, so
campaigns can live in files, be generated by the monkey, or be written
inline in tests — and two runs of the same campaign inject bit-identical
faults at bit-identical times.

Every action is **idempotent against state races**: crashing a node that
is already down, or restarting one that is already up, is a no-op that
reports ``skipped`` — a campaign that overlaps the recovery manager's
own restarts stays well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type

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
        out = {k: v for k, v in self.__dict__.items() if k != "at_ms"}
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "at_ms": self.at_ms, **self.detail()}


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
    """Cut the network into node groups for ``duration_ms`` (or until a
    later :class:`Heal`); frames crossing the cut are dropped."""

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
class Heal(ChaosAction):
    """Lift every partition currently standing."""

    kind = "heal"

    def apply(self, system) -> bool:
        return system.heal_partitions() > 0

    def subject(self) -> str:
        return "net"


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


def _find_gateway(system, gateway_id: int):
    federation = getattr(system, "federation", None)
    if federation is None:
        return None
    for gateway in federation.gateways:
        if gateway.gateway_id == gateway_id:
            return gateway
    return None


@dataclass(frozen=True)
class GatewayCrash(ChaosAction):
    """Fail a store-and-forward gateway (§6.2 federations): it stops
    claiming near-side frames and loses every frame in custody — each
    dead-lettered as ``gateway.drop``. Unclaimed frames survive the
    outage (their senders keep retrying at the link level until the
    gateway restarts); custody frames are permanently lost, which is
    exactly what the dead-letter ledger surfaces."""

    gateway_id: int = 0
    duration_ms: Optional[float] = None

    kind = "gateway_crash"

    def apply(self, system) -> bool:
        gateway = _find_gateway(system, self.gateway_id)
        if gateway is None or not gateway.up:
            return False
        gateway.crash()
        if self.duration_ms is not None:
            system.engine.schedule(self.duration_ms, gateway.restart)
        return True

    def subject(self) -> str:
        return f"gateway{self.gateway_id}"


@dataclass(frozen=True)
class GatewayRestart(ChaosAction):
    """Bring a crashed gateway back; custody starts empty."""

    gateway_id: int = 0

    kind = "gateway_restart"

    def apply(self, system) -> bool:
        gateway = _find_gateway(system, self.gateway_id)
        if gateway is None or gateway.up:
            return False
        gateway.restart()
        return True

    def subject(self) -> str:
        return f"gateway{self.gateway_id}"


def _cut_gateway_edge(system, gateway,
                      duration_ms: Optional[float]) -> bool:
    """Stand a drop rule on one gateway edge's destination medium.

    The forwarder injects far-side frames with
    ``src_node == gateway_id + 1``, so dropping that address severs
    exactly this edge while the gateway itself stays up — claimed
    frames sit in custody and ride the retry budget instead of being
    dead-lettered, which is what distinguishes a *partition* from a
    gateway *crash*."""
    far = getattr(gateway, "far", None)
    if far is None:                     # federation slice: far half remote
        return False
    faults = far.faults
    name = f"partition:gateway:{gateway.gateway_id}"
    if any(rule.name == name for rule in faults._rules):
        return False                    # already cut (state race)
    marker = gateway.gateway_id + 1
    rule = faults.add_rule(
        lambda frame, _receiver, _m=marker: frame.src_node == _m,
        "lose", name=name)
    if duration_ms is not None:
        system.engine.schedule(duration_ms, faults.remove_rule, rule)
    return True


@dataclass(frozen=True)
class GatewayPartition(ChaosAction):
    """Sever one directed gateway edge for ``duration_ms`` (or until a
    restart of the run): frames the forwarder injects into the far
    medium are dropped, so custody frames burn link-level retries
    instead of crossing. Unlike :class:`GatewayCrash` nothing is
    dead-lettered while the partition holds — a short partition is
    invisible to the workload once it heals."""

    gateway_id: int = 0
    duration_ms: Optional[float] = None

    kind = "gateway_partition"

    def apply(self, system) -> bool:
        gateway = _find_gateway(system, self.gateway_id)
        if gateway is None:
            return False
        return _cut_gateway_edge(system, gateway, self.duration_ms)

    def subject(self) -> str:
        return f"gateway{self.gateway_id}"


@dataclass(frozen=True)
class InterclusterPartition(ChaosAction):
    """Cut *every* gateway edge between two clusters, both directions,
    for ``duration_ms`` — the wide-area fibre cut between two sites.
    Intra-cluster traffic and edges to third clusters are untouched;
    cross-cluster recovery routed via a third cluster still works."""

    cluster_a: int = 0
    cluster_b: int = 1
    duration_ms: Optional[float] = None

    kind = "intercluster_partition"

    def apply(self, system) -> bool:
        federation = getattr(system, "federation", None)
        if federation is None:
            return False
        edges = federation.gateway_edges()
        pair = {self.cluster_a, self.cluster_b}
        cut = False
        for gateway in federation.gateways:
            edge = edges.get(gateway.gateway_id)
            if edge is None or set(edge) != pair:
                continue
            cut = _cut_gateway_edge(system, gateway,
                                    self.duration_ms) or cut
        return cut

    def subject(self) -> str:
        return f"clusters{self.cluster_a}-{self.cluster_b}"


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


@dataclass(frozen=True)
class EquivocateSender(ChaosAction):
    """The recorders log divergent payloads under the senders' message
    ids: each affected message is rewritten once, deterministically, so
    the logs disagree with what every receiver saw. ``sender`` narrows
    the fault to one process's traffic; None equivocates anyone's.
    ``recorders`` names the targets by node id (empty: the primary);
    they share one plan, so colluding recorders log the *same* wrong
    body."""

    rate: float = 0.5
    sender: Optional[Tuple[int, int]] = None
    duration_ms: Optional[float] = None
    recorders: Tuple[int, ...] = ()

    kind = "equivocate_sender"

    def apply(self, system) -> bool:
        targets = _recorders_up(system, self.recorders)
        if not targets:
            return False
        from repro.chaos.adversary import (EquivocatingSender,
                                           EquivocationPlan)
        plan = EquivocationPlan(system.rng.stream("adversary/equivocation"),
                                rate=self.rate, sender=self.sender)
        for recorder in targets:
            recorder.stages.append(EquivocatingSender(
                plan, obs=recorder.obs, recorder_id=recorder.config.node_id))
        if self.duration_ms is not None:
            system.engine.schedule(self.duration_ms, setattr, plan, "rate", 0.0)
        return True

    def subject(self) -> str:
        return "recorder"

    def detail(self) -> Dict[str, Any]:
        return {"rate": self.rate,
                "sender": list(self.sender) if self.sender else None,
                "duration_ms": self.duration_ms,
                "recorders": list(self.recorders)}


@dataclass(frozen=True)
class BoundRecorderBuffers(ChaosAction):
    """Hard-cap the recorder's log at ``max_records`` live records:
    backpressure advisories fire at ``advisory_fraction`` of the cap and
    the oldest records this window logged are evicted above it."""

    max_records: int = 64
    advisory_fraction: float = 0.8

    kind = "bound_recorder_buffers"

    def apply(self, system) -> bool:
        if system.recorder is None or not system.recorder.up:
            return False
        from repro.chaos.adversary import BoundedBufferRecorder
        recorder = system.recorder
        recorder.stages.append(BoundedBufferRecorder(
            recorder, self.max_records,
            advisory_fraction=self.advisory_fraction, obs=recorder.obs))
        return True

    def subject(self) -> str:
        return "recorder"


#: kind-name → action class, for campaign files
ACTION_KINDS: Dict[str, Type[ChaosAction]] = {
    cls.kind: cls
    for cls in (CrashNode, RestartNode, CrashProcess, CrashRecorder,
                RestartRecorder, Partition, Heal, DiskStall, DiskSlowdown,
                GatewayCrash, GatewayRestart, GatewayPartition,
                InterclusterPartition, GossipLoss,
                ByzantineRecorderFault, EquivocateSender,
                BoundRecorderBuffers)
}


def action_from_dict(spec: Dict[str, Any]) -> ChaosAction:
    """Build one action from its JSON form (see ``docs/CHAOS.md``)."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    cls = ACTION_KINDS.get(kind)
    if cls is None:
        raise ReproError(
            f"unknown chaos action kind {kind!r}; "
            f"choose from {sorted(ACTION_KINDS)}")
    if "pid" in spec:
        spec["pid"] = tuple(spec["pid"])
    if "groups" in spec:
        spec["groups"] = tuple(tuple(g) for g in spec["groups"])
    for key in ("modes", "recorders"):
        if key in spec:
            spec[key] = tuple(spec[key])
    if spec.get("sender") is not None:
        spec["sender"] = tuple(spec["sender"])
    try:
        return cls(**spec)
    except TypeError as exc:
        raise ReproError(f"bad {kind!r} action spec: {exc}") from exc
