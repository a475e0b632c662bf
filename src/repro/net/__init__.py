"""Network substrate.

The thesis assumes a broadcast LAN on which a passive recorder can
overhear every message. This package provides that substrate:

* :mod:`repro.net.frames` — frames with real checksums;
* :mod:`repro.net.faults` — loss/corruption injection;
* :mod:`repro.net.media` — the medium interface, the publishing rule every
  medium shares, and a perfect broadcast bus;
* :mod:`repro.net.ethernet` — standard CSMA/CD Ethernet;
* :mod:`repro.net.acking_ethernet` — the Tokoro & Tamaru Acknowledging
  Ethernet with a reserved recorder-acknowledgement slot (§6.1.1);
* :mod:`repro.net.token_ring` — a token ring with a recorder ack field
  (§6.1.2);
* :mod:`repro.net.star` — a star configuration whose hub is the recorder
  (the Z8000 configuration of §4.1);
* :mod:`repro.net.transport` — guaranteed/unguaranteed messages, duplicate
  suppression, end-to-end acknowledgements, and in-order delivery (§4.3.3).
"""

from repro.net.frames import Frame, FrameKind, crc16, BROADCAST
from repro.net.faults import FaultPlan
from repro.net.media import Medium, NetworkInterface, PerfectBroadcast, MediumStats
from repro.net.ethernet import CsmaEthernet, EthernetParams
from repro.net.acking_ethernet import AckingEthernet
from repro.net.token_ring import TokenRing, TokenRingParams
from repro.net.star import StarHub
from repro.net.transport import Transport, TransportConfig, TransportStats
from repro.errors import ReproError

#: medium name -> class: the one statement of which media exist (read by
#: ``SystemConfig.medium``, every ``--medium`` flag, the storm workloads)
MEDIA = {
    "broadcast": PerfectBroadcast,
    "acking_ethernet": AckingEthernet,
    "csma_ethernet": CsmaEthernet,
    "star": StarHub,
    "token_ring": TokenRing,
}


def build_medium(name: str, engine, rng, **kwargs) -> Medium:
    """Construct the medium called ``name``; only the contending
    Ethernets draw randomness (backoff), so only they take ``rng``."""
    cls = MEDIA.get(name)
    if cls is None:
        raise ReproError(
            f"unknown medium {name!r}; choose from {tuple(MEDIA)}")
    if issubclass(cls, CsmaEthernet):
        return cls(engine, rng, **kwargs)
    return cls(engine, **kwargs)


__all__ = [
    "MEDIA",
    "build_medium",
    "Frame",
    "FrameKind",
    "crc16",
    "BROADCAST",
    "FaultPlan",
    "Medium",
    "NetworkInterface",
    "PerfectBroadcast",
    "MediumStats",
    "CsmaEthernet",
    "EthernetParams",
    "AckingEthernet",
    "TokenRing",
    "TokenRingParams",
    "StarHub",
    "Transport",
    "TransportConfig",
    "TransportStats",
]
