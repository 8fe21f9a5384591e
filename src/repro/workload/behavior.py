"""Application behaviour model (paper §4.1).

An application is characterised by three parameters:

* ``α`` (*alpha*): time a process spends inside the critical section
  (10 ms in the paper — "the same order of magnitude as a data packet
  hop time between two clusters");
* ``β`` (*beta*): mean interval between releasing the CS and the next
  request;
* ``ρ = β/α`` (*rho*): the degree of parallelism.  High ρ means
  processes rarely compete; low ρ means almost everybody is requesting.

The paper classifies applications against the total process count ``N``:

* **low parallelism**: ``ρ ≤ N`` — almost all clusters have requesters;
* **intermediate**:    ``N < ρ ≤ 3N`` — some clusters have requesters;
* **high parallelism**: ``3N ≤ ρ`` — requests are rare and scattered.
"""

from __future__ import annotations

import enum
import math

from ..errors import ConfigurationError

__all__ = [
    "ParallelismLevel",
    "classify_rho",
    "beta_for_rho",
    "PAPER_ALPHA_MS",
    "PAPER_CS_PER_PROCESS",
    "PAPER_RHO_OVER_N_GRID",
]

#: CS duration used throughout the paper's evaluation (ms).
PAPER_ALPHA_MS = 10.0
#: Critical sections executed by each application process in the paper.
PAPER_CS_PER_PROCESS = 100
#: The ρ/N grid the figure sweeps sample (spans the three behaviour
#: classes: 0.5 and 1 are "low", 2 and 3 "intermediate", 4 and 6 "high").
PAPER_RHO_OVER_N_GRID = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0)


class ParallelismLevel(enum.Enum):
    """The paper's three application behaviour classes."""

    LOW = "low"
    INTERMEDIATE = "intermediate"
    HIGH = "high"


def require_positive(name: str, value: float) -> None:
    """Refuse ``value`` unless it is finite and positive (NaN and
    infinity included), naming the parameter."""
    if not 0 < value < math.inf:
        raise ConfigurationError(
            f"{name} must be finite and positive, got {value!r}"
        )


def classify_rho(rho: float, n_processes: int) -> ParallelismLevel:
    """Classify ``ρ`` against ``N`` total application processes."""
    require_positive("rho", rho)
    if n_processes <= 0:
        raise ConfigurationError(f"n_processes must be positive, got {n_processes}")
    if rho <= n_processes:
        return ParallelismLevel.LOW
    if rho <= 3 * n_processes:
        return ParallelismLevel.INTERMEDIATE
    return ParallelismLevel.HIGH


def beta_for_rho(rho: float, alpha_ms: float) -> float:
    """Mean think time β (ms) realising a given ρ at CS duration α."""
    require_positive("rho", rho)
    require_positive("alpha_ms", alpha_ms)
    return rho * alpha_ms
