"""Per-critical-section and per-recovery measurement records."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CSRecord", "RecoveryRecord"]


@dataclass(frozen=True)
class CSRecord:
    """One completed critical section of one application process.

    All timestamps are simulated milliseconds.  The paper's **obtaining
    time** — "the time between the moment a node requests the CS and the
    moment it gets it" — is :attr:`obtaining_time`.
    """

    node: int
    cluster: int
    requested_at: float
    granted_at: float
    released_at: float

    @property
    def obtaining_time(self) -> float:
        return self.granted_at - self.requested_at

    @property
    def cs_duration(self) -> float:
        return self.released_at - self.granted_at

    def __post_init__(self) -> None:
        if not (
            self.requested_at <= self.granted_at <= self.released_at
        ):
            raise inconsistent_timestamps(
                self.requested_at, self.granted_at, self.released_at
            )


def inconsistent_timestamps(
    requested_at: float, granted_at: float, released_at: float
) -> ValueError:
    """The error for a CS whose timestamps are out of order (or NaN)."""
    return ValueError(
        f"inconsistent CS timestamps: req={requested_at} "
        f"grant={granted_at} rel={released_at}"
    )


@dataclass(frozen=True)
class RecoveryRecord:
    """One completed recovery action of the fault-tolerance layer
    (:mod:`repro.core.recovery`).

    ``kind`` is ``"token_regeneration"`` for an instance-level epoch
    reset or ``"failover"`` for a full coordinator replacement; ``scope``
    names what recovered (an instance port, or ``cluster/<i>``).
    :attr:`recovery_time` spans detection to completion — for a failover
    that covers the intra re-acquisition and the inter reset, i.e. the
    whole service interruption as the recovery layer saw it.
    """

    kind: str
    scope: str
    reason: str
    detected_at: float
    completed_at: float
    elected: int

    @property
    def recovery_time(self) -> float:
        return self.completed_at - self.detected_at

    def __post_init__(self) -> None:
        if self.detected_at > self.completed_at:
            raise ValueError(
                f"recovery completed at {self.completed_at} before it was "
                f"detected at {self.detected_at}"
            )
