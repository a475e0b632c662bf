"""Federation-level capacity model (ISSUE 10 / ROADMAP item 1).

Extends the Figure 5.1 open queueing network from one cluster to a
gateway-bridged federation:

* each cluster is the familiar three-station model — network, recorder
  CPU, recorder disks — at its share of the total user population, with
  the recorder's stations widened into **parallel servers** when the
  cluster shards its recorder (:func:`repro.system.place`): k
  claim-filtered shards split the per-message CPU and disk work k ways;
* every directed **gateway edge** is one more single-server FIFO
  station whose service time is the uplink serialisation time
  (``GatewayForwarder.service_ms``) and whose arrival rate is the
  cluster's cross-cluster traffic share split over its outgoing edges.

The model predicts the *user-capacity knee* per topology — the largest
federation-wide user population for which every station keeps ρ < 1 —
and which station saturates first. :func:`measure_gateway_knee` drives
a **real** :class:`~repro.cluster.gateways.Gateway` (the same component
the DES federations route through) at increasing offered rates and
reports where its delivered fraction collapses, so the ``federation``
rig can print modeled-vs-measured relative error instead of trusting the
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro import costs
from repro.errors import QueueingModelError
from repro.queueing.model import OpenQueueingModel, StationLoad
from repro.queueing.workload import OPERATING_POINTS, OperatingPoint


@dataclass(frozen=True)
class FederationShape:
    """The topology-and-placement half of a federation model's inputs."""

    clusters: int
    topology: str = "ring"
    #: recorder shards per cluster (parallel servers at the recorder
    #: CPU and disk stations)
    recorder_shards: int = 1
    #: uplink serialisation time per forwarded frame (the gateway
    #: station's service time); must be positive — an infinite-server
    #: gateway has no knee to model
    gateway_service_ms: float = 2.0
    #: share of each cluster's traffic addressed to another cluster
    remote_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.clusters < 2:
            raise QueueingModelError(
                "a federation model needs at least two clusters")
        if self.recorder_shards < 1:
            raise QueueingModelError("recorder_shards must be >= 1")
        if self.gateway_service_ms <= 0:
            raise QueueingModelError(
                "gateway_service_ms must be positive (0 is the "
                "infinite-server forwarder, which has no knee)")
        if not 0.0 < self.remote_fraction <= 1.0:
            raise QueueingModelError(
                f"remote_fraction must be in (0, 1], "
                f"got {self.remote_fraction}")

    @property
    def out_degree(self) -> int:
        """Outgoing gateway edges per cluster (symmetric topologies)."""
        if self.topology == "mesh":
            return self.clusters - 1
        if self.topology == "ring":
            return 1 if self.clusters == 2 else 2
        raise QueueingModelError(
            f"unknown federation topology {self.topology!r}")


@dataclass
class FederationCapacityModel:
    """The federated Figure 5.1: per-cluster stations plus gateway
    stations, swept over the *total* federation user count."""

    point: OperatingPoint
    shape: FederationShape
    disks: int = 1
    buffered_writes: bool = True

    def __post_init__(self) -> None:
        #: one single-cluster model reused for every probe (the
        #: capacity bisection pattern of repro.queueing.capacity)
        self._cluster_model = OpenQueueingModel(
            point=self.point, nodes=1, disks=self.disks,
            buffered_writes=self.buffered_writes)

    # ------------------------------------------------------------------
    def _cluster_users(self, users: int) -> float:
        return users / self.shape.clusters

    def gateway_load(self, users: int) -> StationLoad:
        """One directed gateway edge's station (all edges carry the
        same load in a symmetric topology): the cluster's remote
        traffic split over its outgoing edges, served one frame at a
        time at the uplink serialisation rate."""
        per_cluster = self._cluster_users(users)
        total = self._cluster_model.total_packet_rate_per_s(
            users=per_cluster)
        rate = total * self.shape.remote_fraction / self.shape.out_degree
        return StationLoad("gateway", arrival_rate_per_s=rate,
                           mean_service_ms=self.shape.gateway_service_ms)

    def stations(self, users: int) -> List[StationLoad]:
        """One representative cluster's stations (recorder stations
        widened to ``recorder_shards`` parallel servers, the disk array
        additionally by ``disks`` per shard) plus one representative
        gateway edge."""
        per_cluster = self._cluster_users(users)
        shards = self.shape.recorder_shards
        out: List[StationLoad] = []
        for station in self._cluster_model.stations(users=per_cluster):
            if station.name == "cpu":
                station = replace(station, servers=shards)
            elif station.name == "disk":
                station = replace(station, servers=self.disks * shards)
            out.append(station)
        out.append(self.gateway_load(users))
        return out

    def utilizations(self, users: int) -> Dict[str, float]:
        return {s.name: s.utilization for s in self.stations(users)}

    def stable(self, users: int) -> bool:
        return all(not s.saturated for s in self.stations(users))

    def bottleneck(self, users: int) -> str:
        utils = self.utilizations(users)
        return max(utils, key=utils.get)

    # ------------------------------------------------------------------
    def capacity_in_users(self, limit: int = 2_000_000) -> int:
        """Largest federation-wide user count with every station ρ < 1
        (doubling then bisection, the capacity.py probe pattern)."""
        lo, hi = 0, 1
        while hi < limit and self.stable(hi):
            lo, hi = hi, hi * 2
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.stable(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def knee_report(self) -> Dict[str, object]:
        """The knee, its per-station utilisations, and the saturating
        station — what the ``federation`` rig records."""
        knee = self.capacity_in_users()
        probe = max(knee, 1)
        return {
            "topology": self.shape.topology,
            "clusters": self.shape.clusters,
            "recorder_shards": self.shape.recorder_shards,
            "gateway_service_ms": self.shape.gateway_service_ms,
            "remote_fraction": self.shape.remote_fraction,
            "knee_users": knee,
            "bottleneck": self.bottleneck(probe + 1),
            "utilizations_at_knee": self.utilizations(probe),
        }


def modeled_gateway_knee_per_s(service_ms: float) -> float:
    """The offered rate (frames/s) at which one gateway edge saturates:
    a single server finishes 1000/service_ms frames per second."""
    if service_ms <= 0:
        raise QueueingModelError("gateway_service_ms must be positive")
    return 1000.0 / service_ms


def measure_gateway_knee(service_ms: float,
                         rates_per_s: Tuple[float, ...] = (
                             100.0, 200.0, 400.0, 800.0),
                         window_ms: float = 1000.0,
                         threshold: float = 0.95) -> Dict[str, object]:
    """Drive a *real* gateway at increasing offered rates and find the
    measured knee: the smallest probed rate whose delivered-by-deadline
    fraction drops below ``threshold``.

    Each probe is an isolated two-medium rig — a source interface on
    the near medium, a :class:`~repro.cluster.gateways.Gateway` with
    ``service_ms`` uplink serialisation, and a sink interface on the
    far medium. Below the knee the single-server queue keeps up and
    every frame lands inside the window; above it the backlog grows
    linearly and the delivered fraction collapses toward
    ``capacity/rate``. Fully deterministic: no RNG draws, pure event
    counting.
    """
    from repro.cluster.gateways import GATEWAY_FORWARD_DELAY_MS, Gateway
    from repro.net.frames import Frame, FrameKind
    from repro.net.media import NetworkInterface, PerfectBroadcast
    from repro.sim.engine import Engine

    probes: List[Dict[str, float]] = []
    measured: Optional[float] = None
    for rate in rates_per_s:
        engine = Engine()
        near = PerfectBroadcast(engine)
        far = PerfectBroadcast(engine)
        src_id, dst_id = 1, 2
        delivered = [0]
        src_iface = near.attach(NetworkInterface(src_id, lambda frame: None))
        far.attach(NetworkInterface(
            dst_id, lambda frame: delivered.__setitem__(0, delivered[0] + 1)))
        gateway = Gateway(engine, near, far,
                          far_nodes=lambda n: n == dst_id,
                          service_ms=service_ms)
        interval = 1000.0 / rate
        offered = int(rate * window_ms / 1000.0)

        def send_one(_iface=src_iface, _dst=dst_id):
            _iface.send(Frame(FrameKind.DATA, _iface.node_id, _dst,
                              payload=("probe",),
                              size_bytes=costs.SHORT_MSG_BYTES))
        for i in range(offered):
            engine.schedule(i * interval, send_one)
        engine.run(until=window_ms + GATEWAY_FORWARD_DELAY_MS + service_ms)
        fraction = delivered[0] / offered if offered else 1.0
        probes.append({"rate_per_s": rate, "offered": offered,
                       "delivered": delivered[0],
                       "delivered_fraction": round(fraction, 4)})
        if measured is None and fraction < threshold:
            measured = rate
        del gateway
    modeled = modeled_gateway_knee_per_s(service_ms)
    result: Dict[str, object] = {
        "service_ms": service_ms,
        "window_ms": window_ms,
        "threshold": threshold,
        "probes": probes,
        "modeled_knee_per_s": modeled,
        "measured_knee_per_s": measured,
    }
    if measured is not None:
        result["relative_error"] = round(
            abs(measured - modeled) / modeled, 4)
    return result


#: The offered rates the capacity section probes a driven gateway at,
#: as fractions of its modeled knee (1000/service_ms) — dense enough
#: around 1.0 that the measured knee lands within ~10% of the model.
GATEWAY_PROBE_FRACTIONS = (0.6, 0.8, 0.95, 1.05, 1.1, 1.25, 1.5)


def capacity_section(clusters: int, recorder_shards: int, service_ms: float
                     ) -> Tuple[Dict[str, Dict[str, object]],
                                Dict[str, object]]:
    """The federation capacity section, model against measurement.

    Returns ``(knees, gateway)``: the modeled :meth:`knee_report
    <FederationCapacityModel.knee_report>` per topology at the mean
    operating point, and :func:`measure_gateway_knee` of a gateway
    driven at :data:`GATEWAY_PROBE_FRACTIONS` of the modeled knee.
    """
    modeled_rate = modeled_gateway_knee_per_s(service_ms)
    gateway = measure_gateway_knee(
        service_ms,
        rates_per_s=tuple(round(modeled_rate * fraction, 1)
                          for fraction in GATEWAY_PROBE_FRACTIONS))
    knees: Dict[str, Dict[str, object]] = {}
    for topology in ("ring", "mesh"):
        shape = FederationShape(clusters=clusters, topology=topology,
                                recorder_shards=recorder_shards,
                                gateway_service_ms=service_ms)
        knees[topology] = FederationCapacityModel(
            OPERATING_POINTS["mean"], shape).knee_report()
    return knees, gateway
