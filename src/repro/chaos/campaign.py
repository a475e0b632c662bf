"""Deterministic fault campaigns: schedule, fire, report.

A :class:`ChaosCampaign` is an ordered list of
:class:`~repro.chaos.actions.ChaosAction`\\ s armed onto a
:class:`~repro.System`'s engine. Firing is pure discrete-event
scheduling — same campaign, same seed, same workload ⇒ bit-identical
event streams — so a failure found by the monkey replays exactly from
its seed.

Every firing emits a ``chaos.<kind>`` event on the cluster's
instrumentation spine *before* the fault lands, so the chaos event
precedes the cascade it causes in the total event order.

:func:`check_invariants` and :class:`CampaignReport` close the loop:
after the campaign and a settle period, the report asserts the
reliability properties the thesis promises — no guaranteed message
permanently undelivered, no transport wedged with queued traffic, no
process stranded mid-recovery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chaos.actions import (
    ChaosAction,
    CrashNode,
    CrashRecorder,
    DiskSlowdown,
    DiskStall,
    Partition,
    RestartRecorder,
    action_from_dict,
)
from repro.errors import ReproError
from repro.sim.rng import RngStreams


class ChaosCampaign:
    """A named, time-ordered schedule of fault actions."""

    def __init__(self, actions: Iterable[ChaosAction],
                 name: str = "campaign"):
        self.name = name
        self.actions: List[ChaosAction] = sorted(actions,
                                                 key=lambda a: a.at_ms)
        self.injected = 0
        self.skipped = 0
        #: (fire_time_ms, action, applied) for every action that fired
        self.fired: List[Tuple[float, ChaosAction, bool]] = []
        self._armed = False
        self._scope = None

    @property
    def horizon_ms(self) -> float:
        """When the last action fires (0 for an empty campaign).

        Actions with their own windows (partitions, slowdowns) may keep
        side effects running past this; give the system settle time.
        """
        if not self.actions:
            return 0.0
        return max(a.at_ms for a in self.actions)

    def arm(self, system) -> "ChaosCampaign":
        """Schedule every action onto the system's engine.

        Actions dated before ``engine.now`` fire immediately (in
        campaign order) rather than raising.
        """
        if self._armed:
            raise ReproError(f"campaign {self.name!r} is already armed")
        self._armed = True
        self._scope = system.obs.scope("chaos")
        now = system.engine.now
        for action in self.actions:
            system.engine.schedule_at(max(action.at_ms, now),
                                      self._fire, system, action)
        return self

    def _fire(self, system, action: ChaosAction) -> None:
        # Emit first: the chaos event must precede the fault's cascade
        # in the bus's total order.
        self._scope.emit(action.kind, action.subject(), **action.detail())
        applied = action.apply(system)
        if applied:
            self.injected += 1
        else:
            self.skipped += 1
            self._scope.emit("skipped", action.subject(), kind=action.kind)
        self.fired.append((system.engine.now, action, applied))

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name,
                "actions": [a.to_dict() for a in self.actions]}

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def load_campaign(source) -> ChaosCampaign:
    """Build a campaign from a dict or a JSON file path.

    The format (see ``docs/CHAOS.md``)::

        {"name": "demo",
         "actions": [
           {"kind": "crash_node", "at_ms": 1000, "node": 2},
           {"kind": "partition", "at_ms": 3000,
            "groups": [[1], [2, 3]], "duration_ms": 1500}]}
    """
    if isinstance(source, ChaosCampaign):
        return source
    if not isinstance(source, dict):
        with open(source, "r", encoding="utf-8") as fh:
            source = json.load(fh)
    if not isinstance(source, dict) or "actions" not in source:
        raise ReproError("campaign spec must be a dict with an 'actions' list")
    actions = [action_from_dict(spec) for spec in source["actions"]]
    return ChaosCampaign(actions, name=source.get("name", "campaign"))


def demo_campaign(nodes: int) -> ChaosCampaign:
    """The fixed demo campaign: one of everything, well spaced."""
    node_ids = list(range(1, nodes + 1))
    actions: List[ChaosAction] = [CrashNode(2000.0, node=node_ids[-1])]
    if len(node_ids) >= 2:
        actions.append(Partition(4500.0,
                                 groups=(tuple(node_ids[:1]),
                                         tuple(node_ids[1:])),
                                 duration_ms=1200.0))
    actions += [DiskStall(7000.0, duration_ms=300.0),
                CrashRecorder(9000.0), RestartRecorder(10500.0)]
    return ChaosCampaign(actions, name="demo")


# ----------------------------------------------------------------------
# the monkey: a seed-determined random campaign
# ----------------------------------------------------------------------

#: everything the monkey knows how to do
MONKEY_KINDS = ("crash_node", "crash_recorder", "partition",
                "disk_stall", "disk_slowdown")


def monkey_campaign(rng: RngStreams, node_ids: Sequence[int],
                    duration_ms: float,
                    start_ms: float = 1000.0,
                    mean_gap_ms: float = 1200.0,
                    kinds: Sequence[str] = MONKEY_KINDS,
                    name: str = "monkey") -> ChaosCampaign:
    """Generate a random campaign from the cluster's named RNG streams.

    All randomness comes from the single stream ``chaos/<name>``, so the
    campaign is a pure function of (master seed, name, arguments):
    replaying a monkey run needs only its seed, never the action list.
    """
    stream = rng.stream(f"chaos/{name}")
    node_ids = sorted(node_ids)
    actions: List[ChaosAction] = []
    t = float(start_ms)
    while True:
        t += stream.expovariate(1.0 / mean_gap_ms)
        if t >= duration_ms:
            break
        kind = kinds[stream.randrange(len(kinds))]
        if kind == "crash_node" and node_ids:
            actions.append(CrashNode(t, node=node_ids[
                stream.randrange(len(node_ids))]))
        elif kind == "crash_recorder":
            outage = stream.uniform(400.0, 2000.0)
            actions.append(CrashRecorder(t))
            actions.append(RestartRecorder(t + outage))
        elif kind == "partition" and len(node_ids) >= 2:
            split = stream.randrange(1, len(node_ids))
            shuffled = list(node_ids)
            stream.shuffle(shuffled)
            groups = (tuple(sorted(shuffled[:split])),
                      tuple(sorted(shuffled[split:])))
            actions.append(Partition(t, groups=groups,
                                     duration_ms=stream.uniform(300.0, 1500.0)))
        elif kind == "disk_stall":
            actions.append(DiskStall(t, duration_ms=stream.uniform(50.0, 400.0)))
        elif kind == "disk_slowdown":
            actions.append(DiskSlowdown(
                t, factor=stream.uniform(2.0, 8.0),
                duration_ms=stream.uniform(300.0, 1200.0)))
    return ChaosCampaign(actions, name=name)


# ----------------------------------------------------------------------
# invariants and the report
# ----------------------------------------------------------------------

@dataclass
class InvariantCheck:
    """One post-campaign assertion about the cluster's state."""

    name: str
    ok: bool
    detail: str = ""


def check_invariants(system) -> List[InvariantCheck]:
    """The reliability properties a settled cluster must satisfy."""
    checks: List[InvariantCheck] = []

    down = sorted(n for n, node in system.nodes.items() if not node.up)
    checks.append(InvariantCheck(
        "nodes_up", not down,
        f"down: {down}" if down else "all processing nodes up"))

    # Every recorder of the layout is judged, not just the primary; a
    # lone recorder keeps its bare label.
    recorders = {
        ("recorder" if len(system.recorders) == 1
         else f"recorder{recorder.config.node_id}"): recorder
        for recorder in system.recorders}
    if recorders:
        down = [label for label, recorder in recorders.items()
                if not recorder.up]
        checks.append(InvariantCheck(
            "recorder_up", not down,
            ", ".join(f"{label} down" for label in down) or "recorder up"))

    # No transport may be wedged: with traffic quiesced, every queue
    # (outbound + in-flight) must have drained to zero.
    depths: Dict[str, int] = {}
    for node_id, node in sorted(system.nodes.items()):
        if node.up and node.kernel.transport.queue_depth:
            depths[f"node{node_id}"] = node.kernel.transport.queue_depth
    for label, recorder in recorders.items():
        if recorder.up and recorder.transport.queue_depth:
            depths[label] = recorder.transport.queue_depth
    checks.append(InvariantCheck(
        "transports_drained", not depths,
        f"stuck queues: {depths}" if depths else "all queues empty"))

    # Losslessness spans both ledgers: transport give-ups on this
    # cluster *and* custody frames its federation's gateways dropped.
    federation = getattr(system, "federation", None)
    gateway_dead = len(federation.dead_letters) if federation is not None else 0
    total_dead = len(system.dead_letters) + gateway_dead
    checks.append(InvariantCheck(
        "no_dead_letters", total_dead == 0,
        (f"{total_dead} guaranteed messages undelivered"
         + (f" ({gateway_dead} gateway custody losses)" if gateway_dead else "")
         if total_dead else "every guaranteed message delivered")))

    if recorders:
        stuck = sorted({str(r.pid) for recorder in recorders.values()
                        for r in recorder.db.live_records() if r.recovering})
        checks.append(InvariantCheck(
            "recoveries_settled", not stuck,
            (f"still recovering: {stuck}" if stuck
             else "no process mid-recovery")))

    checks.append(InvariantCheck(
        "partitions_healed", not system._partitions,
        (f"{len(system._partitions)} partitions standing"
         if system._partitions else "network whole")))

    return checks


@dataclass
class CampaignReport:
    """What the campaign did and whether the cluster survived it."""

    name: str
    now_ms: float
    faults_injected: int
    faults_skipped: int
    fired: List[Dict[str, Any]]
    figures: Dict[str, Any]
    invariants: List[InvariantCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.invariants)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "now_ms": self.now_ms,
            "ok": self.ok,
            "faults_injected": self.faults_injected,
            "faults_skipped": self.faults_skipped,
            "fired": self.fired,
            "figures": self.figures,
            "invariants": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                           for c in self.invariants],
        }

    def format(self) -> str:
        return format_report(self.to_dict())


def format_report(report: Dict[str, Any]) -> str:
    """Render :meth:`CampaignReport.to_dict` for the terminal — from the
    dict, so a report out of a shard or a JSON file prints the same."""
    lines = [f"chaos campaign {report['name']!r} "
             f"— {'PASS' if report['ok'] else 'FAIL'} "
             f"at t={report['now_ms']:.1f}ms",
             f"  faults injected: {report['faults_injected']}"
             + (f" (+{report['faults_skipped']} skipped)"
                if report['faults_skipped'] else "")]
    for fired in report["fired"]:
        mark = "*" if fired["applied"] else "-"
        lines.append(f"    {mark} {fired['at_ms']:>9.1f}ms  "
                     f"{fired['kind']:<16} {fired['subject']}")
    lines.append("  figures:")
    for key in sorted(report["figures"]):
        lines.append(f"    {key:<24} {report['figures'][key]}")
    lines.append("  invariants:")
    for check in report["invariants"]:
        lines.append(f"    [{'ok' if check['ok'] else 'FAIL'}] "
                     f"{check['name']:<20} {check['detail']}")
    return "\n".join(lines)


def build_report(system, campaign: ChaosCampaign,
                 invariants: Optional[List[InvariantCheck]] = None,
                 ) -> CampaignReport:
    """Collect the campaign's figures from the metrics registry and the
    live objects, then run (or accept) the invariant checks."""
    snapshot = system.metrics_snapshot()

    def summed(suffix: str) -> int:
        return sum(v for k, v in snapshot.items()
                   if k.startswith("transport.") and k.endswith(suffix)
                   and isinstance(v, (int, float)))

    figures: Dict[str, Any] = {
        "losses": snapshot.get("faults.losses", 0),
        "corruptions": snapshot.get("faults.corruptions", 0),
        "partition_drops": snapshot.get("faults.partition_drops", 0),
        "retransmissions": summed(".retransmissions"),
        "gave_up": summed(".gave_up"),
        "dead_letters": len(system.dead_letters),
    }
    federation = getattr(system, "federation", None)
    if federation is not None:
        figures["gateway_dead_letters"] = len(federation.dead_letters)
    if system.gossip is not None:
        figures.update({
            "gossip_rounds": snapshot.get("gossip.rounds", 0),
            "gossip_repaired": snapshot.get("gossip.messages_repaired", 0),
            "gossip_gave_up": snapshot.get("gossip.gave_up", 0),
            "gossip_outstanding": snapshot.get("gossip.outstanding", 0),
        })
    if system.recovery is not None:
        # the registry's figures: summed over every recorder's manager
        for name in ("recoveries_started", "recoveries_completed",
                     "messages_replayed", "node_crashes_detected"):
            figures[name] = snapshot[f"recovery.{name}"]
    # Adversary / quorum figures appear only when those faults ran, so
    # reports from campaigns that never armed them stay byte-identical.
    if "adversary.faults_injected" in snapshot:
        figures["adversary_faults"] = snapshot["adversary.faults_injected"]
        for mode, counter in (("drops", "adversary.drops"),
                              ("duplicates", "adversary.duplicates"),
                              ("corruptions", "adversary.corruptions"),
                              ("reorders", "adversary.reorders"),
                              ("bitrot", "adversary.bitrot"),
                              ("equivocations", "adversary.equivocations"),
                              ("evictions", "adversary.evictions"),
                              ("backpressure",
                               "adversary.backpressure_advisories")):
            if counter in snapshot:
                figures[f"adversary_{mode}"] = snapshot[counter]
    if "quorum.replays" in snapshot:
        figures.update({
            "quorum_replays": snapshot.get("quorum.replays", 0),
            "quorum_divergences": snapshot.get("quorum.divergences", 0),
            "quorum_unresolved": snapshot.get("quorum.unresolved", 0),
            "quorum_stale_skips": snapshot.get("quorum.stale_skips", 0),
        })
    fired = [{"at_ms": at_ms, "kind": action.kind,
              "subject": action.subject(), "applied": applied}
             for at_ms, action, applied in campaign.fired]
    return CampaignReport(
        name=campaign.name,
        now_ms=system.engine.now,
        faults_injected=campaign.injected,
        faults_skipped=campaign.skipped,
        fired=fired,
        figures=figures,
        invariants=(invariants if invariants is not None
                    else check_invariants(system)),
    )
