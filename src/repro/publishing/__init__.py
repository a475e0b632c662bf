"""Published communications — the paper's primary contribution (Ch. 3-4).

* :mod:`repro.publishing.disk` — the recorder's disk model (3 ms
  latency, 2 MB/s transfer, 4 KB page buffering and compaction);
* :mod:`repro.publishing.stable_storage` — battery-backed stable store;
* :mod:`repro.publishing.database` — the per-process database of §4.5;
* :mod:`repro.publishing.recorder` — the passive recorder;
* :mod:`repro.publishing.watchdog` — timeout crash detection (§4.6);
* :mod:`repro.publishing.recovery_manager` — recovery manager and
  recovery processes (§3.3.3, §4.7), the recorder restart protocol
  (§3.3.4, §3.4), and recursive-crash handling (§3.5);
* :mod:`repro.publishing.checkpoints` — checkpoint policies, including
  Young's optimal interval (§3.2.4) and the recovery-time bound (§3.2.3);
* :mod:`repro.publishing.recovery_time` — the §3.2.3 t_max model;
* :mod:`repro.publishing.multi_recorder` — priority-vector coordination
  of several recorders (§6.3);
* :mod:`repro.publishing.gossip` — epidemic repair: bounded peer
  buffers, gap tracking, and pull-based hole repair on top of the
  passive recorder (see ``docs/GOSSIP.md``).

Every publishing ``System`` builds a recorder, its disks and database,
a recovery manager and checkpoints, so those load with the package;
gossip and the multi-recorder load when first named.
"""

from importlib import import_module

from repro.publishing import (  # noqa: F401
    checkpoints, database, disk, recorder, recovery_manager, recovery_time,
    stable_storage, watchdog)

#: export -> the submodule defining it; a submodule not yet imported
#: loads when one of its names is first read
_EXPORTS = {
    "DiskModel": "disk",
    "DiskArray": "disk",
    "StableStorage": "stable_storage",
    "ProcessRecord": "database",
    "LoggedMessage": "database",
    "RecorderDatabase": "database",
    "RecoveryTimeModel": "recovery_time",
    "young_interval": "checkpoints",
    "CheckpointPolicy": "checkpoints",
    "YoungIntervalPolicy": "checkpoints",
    "RecoveryTimeBoundPolicy": "checkpoints",
    "StorageBalancePolicy": "checkpoints",
    "Watchdog": "watchdog",
    "GapTracker": "gossip",
    "GossipBuffer": "gossip",
    "GossipConfig": "gossip",
    "GossipCoordinator": "gossip",
    "ReceptionLoss": "gossip",
    "Recorder": "recorder",
    "RecorderConfig": "recorder",
    "RecoveryManager": "recovery_manager",
    "MultiRecorderCoordinator": "multi_recorder",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
