"""Network fault injection.

The thesis assumes "network failures are temporary" (§4.3.3): frames may
be lost or corrupted, and the transport layer's retransmission recovers
them. A :class:`FaultPlan` decides, per delivery attempt, whether a frame
is lost, corrupted, or delivered intact. Probabilistic faults draw from a
named RNG stream so runs stay reproducible; targeted faults let tests
drop *specific* frames (e.g. "the recorder misses the next data frame");
standing **rules** model conditions that persist until removed — a
network partition drops every frame crossing the cut until it heals.

Fault totals are the plan's ``losses`` / ``corruptions`` /
``partition_drops`` :class:`~repro.obs.Counter` attributes, registered
as ``faults.*``: attaching the plan to a :class:`~repro.net.media.Medium`
moves them into the medium's registry, so ``metrics`` CLI snapshots
include injected faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.net.frames import Frame
from repro.obs import MetricsRegistry
from repro.sim.rng import RngStreams


@dataclass
class _TargetedFault:
    predicate: Callable[[Frame, int], bool]
    action: str                # "lose" or "corrupt"
    remaining: int             # how many matching deliveries to affect


class FaultRule:
    """A standing fault: every delivery matching ``predicate(frame,
    receiver)`` is affected until the rule is removed. Partitions and
    per-pair blackholes are built on this."""

    __slots__ = ("predicate", "action", "name", "hits")

    def __init__(self, predicate: Callable[[Frame, int], bool],
                 action: str = "lose", name: str = "rule"):
        self.predicate = predicate
        self.action = action
        self.name = name
        self.hits = 0


class FaultPlan:
    """Loss/corruption policy consulted on every frame delivery attempt.

    ``loss_rate`` and ``corruption_rate`` apply independently per receiver
    (a broadcast frame can reach some receivers and miss others, exactly
    the case the recorder-acknowledgement machinery exists for). Both
    rates, ``rng``, the rules and the targeted faults may be changed at
    any time; the next delivery attempt sees the change.
    """

    def __init__(self, rng: Optional[RngStreams] = None,
                 loss_rate: float = 0.0, corruption_rate: float = 0.0,
                 registry: Optional[MetricsRegistry] = None):
        self.rng = rng
        self.loss_rate = loss_rate
        self.corruption_rate = corruption_rate
        self._targeted: List[_TargetedFault] = []
        self._rules: List[FaultRule] = []
        #: receiver node -> ``random`` of its stream, looked up once in
        #: ``_draws_from`` — which ``rng`` is until someone replaces it
        self._draws_from, self._draws = rng, {}
        self.bind(registry or MetricsRegistry())

    def bind(self, registry: MetricsRegistry) -> None:
        """(Re)register the fault counters in ``registry``, carrying any
        counts already accumulated. Media call this on construction so
        one shared plan lands in the cluster-wide registry."""
        for name in ("losses", "corruptions", "partition_drops"):
            counter = registry.counter(f"faults.{name}")
            previous = getattr(self, name, None)
            if previous is not None and previous is not counter:
                counter.inc(previous.value)
            setattr(self, name, counter)

    # ------------------------------------------------------------------
    # targeted one-shot faults
    # ------------------------------------------------------------------
    def lose_next(self, predicate: Callable[[Frame, int], bool], count: int = 1) -> None:
        """Drop the next ``count`` deliveries matching ``predicate(frame, receiver)``."""
        self._targeted.append(_TargetedFault(predicate, "lose", count))

    def corrupt_next(self, predicate: Callable[[Frame, int], bool], count: int = 1) -> None:
        """Corrupt the next ``count`` deliveries matching the predicate."""
        self._targeted.append(_TargetedFault(predicate, "corrupt", count))

    # ------------------------------------------------------------------
    # standing rules (partitions, blackholes)
    # ------------------------------------------------------------------
    def add_rule(self, predicate: Callable[[Frame, int], bool],
                 action: str = "lose", name: str = "rule") -> FaultRule:
        """Install a standing fault; returns the rule for later removal."""
        rule = FaultRule(predicate, action, name)
        self._rules.append(rule)
        return rule

    def remove_rule(self, rule: FaultRule) -> None:
        """Lift a standing fault (a partition healing). Idempotent."""
        if rule in self._rules:
            self._rules.remove(rule)

    def partition(self, *groups: Sequence[int]) -> FaultRule:
        """Partition the network into node groups: every frame whose
        sender and receiver sit in *different* groups is dropped — the
        §4.3.3 "temporary network failure" in its most aggressive shape.
        Nodes in no group (the recorder, usually) stay reachable from
        everyone. Returns the rule; ``remove_rule`` heals the partition.
        """
        sets = [frozenset(g) for g in groups]

        def crosses_cut(frame: Frame, receiver_node: int) -> bool:
            src_group = dst_group = None
            for group in sets:
                if frame.src_node in group:
                    src_group = group
                if receiver_node in group:
                    dst_group = group
            return (src_group is not None and dst_group is not None
                    and src_group is not dst_group)

        label = "|".join(",".join(str(n) for n in sorted(g)) for g in sets)
        return self.add_rule(crosses_cut, "lose", name=f"partition:{label}")

    # ------------------------------------------------------------------
    def apply(self, frame: Frame, receiver_node: int) -> Optional[Frame]:
        """Decide the fate of ``frame`` at ``receiver_node``.

        Returns the frame to deliver (possibly a corrupted copy) or None
        if the frame is lost. Every frame comes here once per receiver:
        a plan with no rule, no targeted fault and no rate looks nothing
        up, and with a rate set each attempt draws from the receiver's
        own stream, loss first.
        """
        loss, corruption = self.loss_rate, self.corruption_rate
        if not (self._rules or self._targeted or loss > 0 or corruption > 0):
            return frame
        for rule in self._rules:
            if rule.predicate(frame, receiver_node):
                rule.hits += 1
                if rule.action == "lose":
                    self.losses.inc()
                    if rule.name.startswith("partition:"):
                        self.partition_drops.inc()
                    return None
                return self._corrupted_copy(frame)
        # copied: a one-shot fault that fires leaves the list
        for fault in list(self._targeted) if self._targeted else ():
            if fault.remaining > 0 and fault.predicate(frame, receiver_node):
                fault.remaining -= 1
                if fault.remaining == 0:
                    self._targeted.remove(fault)
                if fault.action == "lose":
                    self.losses.inc()
                    return None
                return self._corrupted_copy(frame)
        if self.rng is not None and (loss > 0 or corruption > 0):
            if self._draws_from is not self.rng:
                self._draws_from, self._draws = self.rng, {}
            draw = self._draws.get(receiver_node)
            if draw is None:
                draw = self._draws[receiver_node] = self.rng.stream(
                    f"faults/{receiver_node}").random
            if loss > 0 and draw() < loss:
                self.losses.inc()
                return None
            if corruption > 0 and draw() < corruption:
                return self._corrupted_copy(frame)
        return frame

    def _corrupted_copy(self, frame: Frame) -> Frame:
        self.corruptions.inc()
        copy = frame.clone_for(frame.dst_node)
        copy.corrupt()
        return copy
