"""Statistical summaries of obtaining times.

The paper's three metrics (§4.1) are the **obtaining time** average, the
**number of sent messages** (inter-cluster in particular), and the
obtaining time's **standard deviation** — §4.5 additionally studies the
*relative* deviation ``σ_r = σ / mean`` to factor out the mean's own
variation with ρ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence, Tuple

import numpy as np

__all__ = ["SummaryStats", "summarize", "pooled", "jain_index"]


@dataclass(frozen=True)
class SummaryStats:
    """Moments of a sample of obtaining times (ms).

    Slotted, and pickled by position: a result carries one per cluster
    and one overall, and each is decoded on every cache hit, so an
    instance holds no ``__dict__`` and its pickle no field names.  The
    slots are spelled out: ``slots=True`` rebuilds the class, and the
    frozen ``__setattr__`` it generated names the replaced class, so
    setting an unknown name raises ``TypeError``, not
    ``FrozenInstanceError``.
    """

    __slots__ = ("count", "mean", "std", "minimum", "maximum", "p50", "p95")

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        return (self.__class__, (
            self.count, self.mean, self.std, self.minimum, self.maximum,
            self.p50, self.p95,
        ))

    @property
    def relative_std(self) -> float:
        """The paper's σ_r = σ / mean (0 when the mean is 0)."""
        return self.std / self.mean if self.mean else 0.0

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.3f}ms std={self.std:.3f}ms "
            f"(σ_r={self.relative_std:.2f}) p50={self.p50:.3f} "
            f"p95={self.p95:.3f} min={self.minimum:.3f} max={self.maximum:.3f}"
        )


_EMPTY = SummaryStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def summarize(values: Iterable[float]) -> SummaryStats:
    """Summary statistics of ``values`` (population std, like the paper's
    measured σ over all observed CS entries).  An ndarray is read as it
    is; any other iterable is listed first."""
    arr = np.asarray(
        values if isinstance(values, np.ndarray) else list(values),
        dtype=float,
    )
    if arr.size == 0:
        return _EMPTY
    p50, p95 = np.percentile(arr, (50, 95)).tolist()
    return SummaryStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        p50=p50,
        p95=p95,
    )


def jain_index(values: Iterable[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n·Σx²)``.

    1.0 means perfectly equal values; ``1/n`` is the worst case (one
    process gets everything).  Used to quantify §4.6's observation that
    Suzuki-Kasami's token queue — which appends in peer-id order, not
    arrival order — treats processes less evenly than Naimi-Tréhel's
    arrival-ordered distributed queue.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 1.0
    denom = arr.size * float((arr**2).sum())
    if denom == 0.0:
        return 1.0
    return float(arr.sum()) ** 2 / denom


def pooled(stats: Sequence[SummaryStats]) -> SummaryStats:
    """Combine per-run summaries into one, as if the samples were pooled.

    Uses exact pooled-moment formulas, so ``pooled(map(summarize, runs))``
    equals ``summarize(concatenation)`` up to floating point — except for
    the percentiles, which cannot be pooled exactly and are approximated
    by the count-weighted average of the per-run percentiles.
    """
    stats = [s for s in stats if s.count > 0]
    if not stats:
        return _EMPTY
    n = sum(s.count for s in stats)
    mean = sum(s.mean * s.count for s in stats) / n
    second_moment = sum((s.std**2 + s.mean**2) * s.count for s in stats) / n
    var = max(0.0, second_moment - mean**2)
    return SummaryStats(
        count=n,
        mean=mean,
        std=math.sqrt(var),
        minimum=min(s.minimum for s in stats),
        maximum=max(s.maximum for s in stats),
        p50=sum(s.p50 * s.count for s in stats) / n,
        p95=sum(s.p95 * s.count for s in stats) / n,
    )
