"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly.

    Examples: scheduling an event in the past, running a simulator that was
    already stopped and drained, or cancelling a foreign event handle.
    """


class NetworkError(ReproError):
    """Invalid network operation (unknown node, negative latency, ...)."""


class TopologyError(ReproError):
    """Malformed topology description (empty cluster, duplicate node id...)."""


class ProtocolError(ReproError):
    """A mutual exclusion algorithm received a message that violates its
    protocol assumptions (e.g. a second token appearing in the system)."""


class CompositionError(ReproError):
    """The hierarchical composition was assembled or driven incorrectly."""


class SafetyViolation(ReproError):
    """The mutual exclusion *safety* property was violated: two processes
    were observed inside the critical section at the same simulated time."""


class LivenessViolation(ReproError):
    """The mutual exclusion *liveness* property was violated: a request was
    never satisfied by the end of the run."""


class ConfigurationError(ReproError):
    """An experiment or workload was configured with invalid parameters."""


class FarmError(ReproError):
    """The multi-worker experiment farm failed as a whole: a job's
    manifest is malformed or missing, every worker died with chunks
    outstanding, or the farm deadline elapsed before completion."""


class RecoveryError(ReproError):
    """The crash-recovery layer could not restore the system (no live
    peer to elect, no standby left for a failover, or an algorithm
    with no token to re-seat)."""
