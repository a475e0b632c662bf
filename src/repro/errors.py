"""Exception hierarchy for the repro package.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming mistakes (``TypeError`` etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly."""


class NetworkError(ReproError):
    """A network component was configured or driven incorrectly."""


class EncodingError(ReproError, TypeError):
    """A payload holds a value the wire encoding does not cover.

    Raised by :func:`repro.net.frames.canonical_bytes` — in practice
    when the sender builds the :class:`~repro.net.frames.Frame` — for
    any type outside the builtin values and the registered payload
    classes, and for a payload that contains itself or is larger than
    ``MAX_WIRE_VALUES``. Also a ``TypeError``, which is what it is.
    """


class ConfigError(ReproError, ValueError):
    """A model, cost table, message or component was built with a
    value outside its domain (a size or rate out of range, an unknown
    side or path name, masses that do not sum to one, a payload tag
    already taken). Also a ``ValueError``, which is what it is."""


class MetricKindError(ReproError, TypeError):
    """A metric name was asked for as one kind (counter, gauge,
    histogram) after being registered as another. Also a ``TypeError``,
    which is what it is."""


class KernelError(ReproError):
    """A DEMOS kernel call failed in a way the caller cannot recover from.

    Recoverable conditions (no message available, bad link id, ...) are
    reported through kernel-call condition codes, not exceptions; this
    exception signals misuse of the kernel API itself.
    """


class LinkError(KernelError):
    """An operation referenced a link id that does not exist or was moved."""


class ProcessError(KernelError):
    """A process operation referenced a dead or unknown process."""


class RecorderError(ReproError):
    """The publishing recorder detected an inconsistency."""


class RecordCorruptionError(RecorderError):
    """A logged record failed its checksum on a verified read.

    Raised by :class:`repro.publishing.database.ReplayCursor` when opened
    with ``verify=True``; the cursor position has already advanced past
    the bad record, so callers may skip it and keep reading.
    """


class QuorumDivergenceError(RecorderError):
    """Quorum replay could not reconcile the recorder streams."""


class RecoveryError(ReproError):
    """Process or recorder recovery could not make progress."""


class StorageError(ReproError):
    """Stable storage or the disk model rejected an operation."""


class TransactionError(ReproError):
    """A published transaction was aborted or misused."""


class QueueingModelError(ReproError):
    """The queuing model was configured with parameters it cannot solve."""


class PlacementError(ReproError):
    """A recorder placement was configured incoherently (overlapping
    ranges, recorder ids colliding with node ids, zero-node clusters)."""
