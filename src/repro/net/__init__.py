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

Every ``System`` builds frames, faults, a medium and transports, so
those load with the package; the other media load when first named, so
a process compiles only the medium it runs (docs/PERFORMANCE.md).
"""

from importlib import import_module

from repro.errors import ReproError
from repro.net import faults, frames, media, transport  # noqa: F401

#: medium name -> where its class lives: the one statement of which
#: media exist (read by ``SystemConfig.medium``, every ``--medium`` flag,
#: the storm workloads); naming one imports only its own module
MEDIA = {
    "broadcast": "repro.net.media.PerfectBroadcast",
    "acking_ethernet": "repro.net.acking_ethernet.AckingEthernet",
    "csma_ethernet": "repro.net.ethernet.CsmaEthernet",
    "star": "repro.net.star.StarHub",
    "token_ring": "repro.net.token_ring.TokenRing",
}


def medium_class(name: str) -> type:
    """The class of the medium called ``name``."""
    if name not in MEDIA:
        raise ReproError(f"unknown medium {name!r}; choose from {tuple(MEDIA)}")
    module, _, cls = MEDIA[name].rpartition(".")
    return getattr(import_module(module), cls)


def build_medium(name: str, engine, rng, **kwargs) -> media.Medium:
    """Construct the medium called ``name``; only the contending
    Ethernets draw randomness (backoff), so only they take ``rng``."""
    cls = medium_class(name)
    if name in ("acking_ethernet", "csma_ethernet"):
        return cls(engine, rng, **kwargs)
    return cls(engine, **kwargs)


#: export -> the submodule defining it; a submodule not yet imported
#: loads when one of its names is first read
_EXPORTS = {
    "Frame": "frames",
    "FrameKind": "frames",
    "crc16": "frames",
    "BROADCAST": "frames",
    "FaultPlan": "faults",
    "Medium": "media",
    "NetworkInterface": "media",
    "PerfectBroadcast": "media",
    "MediumStats": "media",
    "CsmaEthernet": "ethernet",
    "AckingEthernet": "acking_ethernet",
    "TokenRing": "token_ring",
    "StarHub": "star",
    "Transport": "transport",
    "TransportConfig": "transport",
    "TransportStats": "transport",
}

__all__ = ["MEDIA", "build_medium", "medium_class", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
