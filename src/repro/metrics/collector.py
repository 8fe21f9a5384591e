"""Collection of per-CS rows during a run.

Two collectors share one interface: the exact :class:`MetricsCollector`
keeps every CS as five numbers, one column per
:class:`~repro.metrics.records.CSRecord` field (paper-scale runs, a few
thousand rows), and :class:`BoundedMetricsCollector` keeps O(cap) state
for 1k-10k-node sweeps — exact streaming moments (count, mean, std, min,
max, overall and per cluster) plus a uniform reservoir sample of rows
for the percentile and per-node views.  The experiment
runner switches to the bounded collector automatically above
:data:`~repro.net.topology.LARGE_GRID_NODES` application processes.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .analysis import SummaryStats, jain_index, summarize
from .records import CSRecord, RecoveryRecord, inconsistent_timestamps

__all__ = ["MetricsCollector", "BoundedMetricsCollector"]

#: Reservoir slots are drawn this many at a time.  numpy's
#: ``integers(0, highs)`` over an array of bounds yields the same values
#: as one scalar ``integers(0, high)`` call per bound, in order.
_SLOT_BLOCK = 64

#: ``(node, cluster, requested_at, granted_at, released_at)``, one
#: sequence per :class:`~repro.metrics.records.CSRecord` field
_Columns = Tuple[
    Sequence[int], Sequence[int], Sequence[float], Sequence[float],
    Sequence[float],
]


def _obtaining(columns: _Columns) -> np.ndarray:
    """Obtaining times ``granted - requested``, the same IEEE operation
    as :attr:`~repro.metrics.records.CSRecord.obtaining_time`."""
    return np.asarray(columns[3], dtype=float) - np.asarray(
        columns[2], dtype=float
    )


def _grouped(columns: _Columns, key: int) -> Dict[int, np.ndarray]:
    """Obtaining times per value of column ``key`` (0: node, 1: cluster),
    values ascending, in row order within a value (the order fixes the
    rounding of a group's mean)."""
    if not columns[key]:
        return {}
    keyed = np.asarray(columns[key])
    order = np.argsort(keyed, kind="stable")
    unique, starts = np.unique(keyed[order], return_index=True)
    groups = np.split(_obtaining(columns)[order], starts[1:])
    return dict(zip(unique.tolist(), groups))


class MetricsCollector:
    """Accumulates one row of five numbers per completed critical section.

    Application processes push a row per completed CS through
    :meth:`add_cs`; the experiment layer reads the aggregations after the
    run.  A CS is stored as five appended numbers, one list per
    :class:`~repro.metrics.records.CSRecord` field, and every summary is
    computed from those columns: no per-CS object is built on the run
    path.  :attr:`records` builds the records when it is read.  The
    recovery layer (:mod:`repro.core.recovery`) additionally pushes
    :class:`~repro.metrics.records.RecoveryRecord` entries and per-kind
    retry counts; both stay empty on fault-free runs.
    """

    def __init__(self) -> None:
        self._node: List[int] = []
        self._cluster: List[int] = []
        self._requested: List[float] = []
        self._granted: List[float] = []
        self._released: List[float] = []
        self.recoveries: List[RecoveryRecord] = []
        self.retries: Dict[str, int] = defaultdict(int)

    def add_cs(
        self,
        node: int,
        cluster: int,
        requested_at: float,
        granted_at: float,
        released_at: float,
    ) -> None:
        """Record one completed CS, refusing timestamps that
        :class:`~repro.metrics.records.CSRecord` refuses (NaN included)."""
        if not requested_at <= granted_at <= released_at:
            raise inconsistent_timestamps(requested_at, granted_at, released_at)
        self._node.append(node)
        self._cluster.append(cluster)
        self._requested.append(requested_at)
        self._granted.append(granted_at)
        self._released.append(released_at)

    def add(self, record: CSRecord) -> None:
        """Record one completed CS given as a record (see :meth:`add_cs`)."""
        self.add_cs(
            record.node, record.cluster, record.requested_at,
            record.granted_at, record.released_at,
        )

    def add_recovery(self, record: RecoveryRecord) -> None:
        self.recoveries.append(record)

    def record_retry(self, kind: str) -> None:
        """Count one detector escalation of ``kind`` (e.g.
        ``"deadline:intra/0"`` or ``"heartbeat:1"``)."""
        self.retries[kind] += 1

    # ------------------------------------------------------------------ #
    def _columns(self) -> _Columns:
        """The stored rows as five parallel columns, in insertion order."""
        return (
            self._node, self._cluster, self._requested, self._granted,
            self._released,
        )

    @property
    def records(self) -> List[CSRecord]:
        """The stored rows as :class:`~repro.metrics.records.CSRecord`
        objects, built on each read."""
        return [CSRecord(*row) for row in zip(*self._columns())]

    @property
    def cs_count(self) -> int:
        return len(self._node)

    def obtaining_times(self) -> List[float]:
        _, _, requested, granted, _ = self._columns()
        return [g - r for r, g in zip(requested, granted)]

    def obtaining_stats(self) -> SummaryStats:
        """The paper's headline metric over the whole run."""
        return summarize(_obtaining(self._columns()))

    def by_cluster(self) -> Dict[int, SummaryStats]:
        """Obtaining time summary per cluster — used to study how latency
        heterogeneity spreads the per-cluster experience (§4.5)."""
        return {
            ci: summarize(v) for ci, v in _grouped(self._columns(), 1).items()
        }

    def by_node(self) -> Dict[int, SummaryStats]:
        return {
            node: summarize(v)
            for node, v in _grouped(self._columns(), 0).items()
        }

    def recovery_times(self) -> List[float]:
        return [r.recovery_time for r in self.recoveries]

    def fairness(self) -> Dict[str, float]:
        """Fairness indicators across application processes.

        * ``obtaining_jain`` — Jain's index over each node's *mean*
          obtaining time (1.0 = every node waits equally long);
        * ``worst_over_best`` — ratio of the slowest node's mean
          obtaining time to the fastest node's (1.0 = perfectly even).
        """
        per_node = [s.mean for s in self.by_node().values()]
        if not per_node:
            return {"obtaining_jain": 1.0, "worst_over_best": 1.0}
        best = min(per_node)
        return {
            "obtaining_jain": jain_index(per_node),
            "worst_over_best": max(per_node) / best if best else float("inf"),
        }


class _Moments:
    """Exact streaming count/sum/sum-of-squares/min/max accumulator."""

    __slots__ = ("n", "total", "total_sq", "minimum", "maximum")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.n += 1
        self.total += value
        self.total_sq += value * value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def stats(self, p50: float, p95: float) -> SummaryStats:
        """Exact moments with externally supplied percentiles."""
        n = self.n
        mean = self.total / n
        var = max(0.0, self.total_sq / n - mean * mean)
        return SummaryStats(
            count=n,
            mean=mean,
            std=math.sqrt(var),
            minimum=self.minimum,
            maximum=self.maximum,
            p50=p50,
            p95=p95,
        )


class BoundedMetricsCollector(MetricsCollector):
    """O(cap) drop-in for :class:`MetricsCollector` on large grids.

    Count, mean, std, min and max — overall and per cluster — are
    **exact** (streaming moments; population std like
    :func:`~repro.metrics.analysis.summarize`).  Percentiles and the
    per-node views (``by_node``, ``fairness``, ``obtaining_times``) are
    computed over a uniform reservoir sample of ``max_records`` rows
    (Vitter's algorithm R), so they are deterministic for a given seed
    and insertion order but approximate once the run exceeds the cap.
    The reservoir RNG is an explicit private generator: it never touches
    the simulation's seeded streams, so enabling the bounded collector
    cannot perturb a run's digest.
    """

    def __init__(self, max_records: int = 8192, seed: int = 0) -> None:
        super().__init__()
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        self.max_records = int(max_records)
        self._rng = np.random.default_rng(seed ^ 0x5EED_CA9)
        # The reservoir is the five columns of the exact collector: a
        # sampled CS is a row of them, replaced column by column.
        #: block-drawn reservoir slots, reversed (``pop()`` is the next)
        self._slots: List[int] = []
        self._all = _Moments()
        self._clusters: Dict[int, _Moments] = {}

    def add_cs(
        self,
        node: int,
        cluster: int,
        requested_at: float,
        granted_at: float,
        released_at: float,
    ) -> None:
        if not requested_at <= granted_at <= released_at:
            raise inconsistent_timestamps(requested_at, granted_at, released_at)
        t = granted_at - requested_at
        self._all.add(t)
        moments = self._clusters.get(cluster)
        if moments is None:
            moments = self._clusters[cluster] = _Moments()
        moments.add(t)
        seen = self._all.n - 1  # rows seen before this one
        if seen < self.max_records:
            self._node.append(node)
            self._cluster.append(cluster)
            self._requested.append(requested_at)
            self._granted.append(granted_at)
            self._released.append(released_at)
            return
        slots = self._slots
        if not slots:
            highs = np.arange(seen + 1, seen + 1 + _SLOT_BLOCK)
            slots.extend(self._rng.integers(0, highs)[::-1].tolist())
        j = slots.pop()
        if j < self.max_records:
            self._node[j] = node
            self._cluster[j] = cluster
            self._requested[j] = requested_at
            self._granted[j] = granted_at
            self._released[j] = released_at

    @property
    def cs_count(self) -> int:
        return self._all.n

    def obtaining_stats(self) -> SummaryStats:
        if self._all.n == 0:
            return summarize(())
        p50, p95 = np.percentile(_obtaining(self._columns()), (50, 95)).tolist()
        return self._all.stats(p50=p50, p95=p95)

    def by_cluster(self) -> Dict[int, SummaryStats]:
        sampled = _grouped(self._columns(), 1)
        out: Dict[int, SummaryStats] = {}
        for ci, moments in sorted(self._clusters.items()):
            sample = sampled.get(ci)
            if sample is not None:
                p50, p95 = np.percentile(sample, (50, 95)).tolist()
            else:  # cluster fell out of the reservoir: mean as fallback
                p50 = p95 = moments.total / moments.n
            out[ci] = moments.stats(p50=p50, p95=p95)
        return out
