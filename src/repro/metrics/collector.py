"""Collection of per-CS records during a run.

Two collectors share one interface: the exact :class:`MetricsCollector`
keeps every :class:`~repro.metrics.records.CSRecord` (paper-scale runs,
a few thousand records), and :class:`BoundedMetricsCollector` keeps
O(cap) state for 1k-10k-node sweeps — exact streaming moments (count,
mean, std, min, max, overall and per cluster) plus a uniform reservoir
sample of records for the percentile and per-node views.  The experiment
runner switches to the bounded collector automatically above
:data:`~repro.net.topology.LARGE_GRID_NODES` application processes.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List

import numpy as np

from .analysis import SummaryStats, jain_index, summarize
from .records import CSRecord, RecoveryRecord

__all__ = ["MetricsCollector", "BoundedMetricsCollector"]

#: Reservoir slots are drawn this many at a time.  numpy's
#: ``integers(0, highs)`` over an array of bounds yields the same values
#: as one scalar ``integers(0, high)`` call per bound, in order.
_SLOT_BLOCK = 64


class MetricsCollector:
    """Accumulates :class:`~repro.metrics.records.CSRecord` objects.

    Application processes push a record per completed CS; the experiment
    layer reads the aggregations after the run.  The recovery layer
    (:mod:`repro.core.recovery`) additionally pushes
    :class:`~repro.metrics.records.RecoveryRecord` entries and per-kind
    retry counts; both stay empty on fault-free runs.
    """

    def __init__(self) -> None:
        self.records: List[CSRecord] = []
        self.recoveries: List[RecoveryRecord] = []
        self.retries: Dict[str, int] = defaultdict(int)

    def add(self, record: CSRecord) -> None:
        self.records.append(record)

    def add_recovery(self, record: RecoveryRecord) -> None:
        self.recoveries.append(record)

    def record_retry(self, kind: str) -> None:
        """Count one detector escalation of ``kind`` (e.g.
        ``"deadline:intra/0"`` or ``"heartbeat:1"``)."""
        self.retries[kind] += 1

    # ------------------------------------------------------------------ #
    @property
    def cs_count(self) -> int:
        return len(self.records)

    def obtaining_times(self) -> List[float]:
        return [r.obtaining_time for r in self.records]

    def obtaining_stats(self) -> SummaryStats:
        """The paper's headline metric over the whole run."""
        return summarize(self.obtaining_times())

    def by_cluster(self) -> Dict[int, SummaryStats]:
        """Obtaining time summary per cluster — used to study how latency
        heterogeneity spreads the per-cluster experience (§4.5)."""
        groups: Dict[int, List[float]] = defaultdict(list)
        for r in self.records:
            groups[r.cluster].append(r.obtaining_time)
        return {ci: summarize(v) for ci, v in sorted(groups.items())}

    def by_node(self) -> Dict[int, SummaryStats]:
        groups: Dict[int, List[float]] = defaultdict(list)
        for r in self.records:
            groups[r.node].append(r.obtaining_time)
        return {node: summarize(v) for node, v in sorted(groups.items())}

    def completion_time(self) -> float:
        """Simulated time of the last CS release (0 when empty)."""
        return max((r.released_at for r in self.records), default=0.0)

    def recovery_times(self) -> List[float]:
        return [r.recovery_time for r in self.recoveries]

    def recovery_stats(self) -> SummaryStats:
        """Detection-to-completion time over all recoveries of the run."""
        return summarize(self.recovery_times())

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

    Count, mean, std, min, max and completion time — overall and per
    cluster — are **exact** (streaming moments; population std like
    :func:`~repro.metrics.analysis.summarize`).  Percentiles and the
    per-node views (``by_node``, ``fairness``, ``obtaining_times``) are
    computed over a uniform reservoir sample of ``max_records`` records
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
        #: block-drawn reservoir slots, reversed (``pop()`` is the next)
        self._slots: List[int] = []
        self._all = _Moments()
        self._clusters: Dict[int, _Moments] = {}
        self._last_release = 0.0

    def add(self, record: CSRecord) -> None:
        t = record.obtaining_time
        self._all.add(t)
        cluster = self._clusters.get(record.cluster)
        if cluster is None:
            cluster = self._clusters[record.cluster] = _Moments()
        cluster.add(t)
        if record.released_at > self._last_release:
            self._last_release = record.released_at
        records = self.records
        seen = self._all.n - 1  # records seen before this one
        if seen < self.max_records:
            records.append(record)
            return
        slots = self._slots
        if not slots:
            highs = np.arange(seen + 1, seen + 1 + _SLOT_BLOCK)
            slots.extend(self._rng.integers(0, highs)[::-1].tolist())
        j = slots.pop()
        if j < self.max_records:
            records[j] = record

    @property
    def cs_count(self) -> int:
        return self._all.n

    def obtaining_stats(self) -> SummaryStats:
        if self._all.n == 0:
            return summarize(())
        sample = np.asarray(
            [r.obtaining_time for r in self.records], dtype=float
        )
        return self._all.stats(
            p50=float(np.percentile(sample, 50)),
            p95=float(np.percentile(sample, 95)),
        )

    def by_cluster(self) -> Dict[int, SummaryStats]:
        groups: Dict[int, List[float]] = defaultdict(list)
        for r in self.records:
            groups[r.cluster].append(r.obtaining_time)
        out: Dict[int, SummaryStats] = {}
        for ci, moments in sorted(self._clusters.items()):
            sampled = groups.get(ci)
            if sampled:
                arr = np.asarray(sampled, dtype=float)
                p50 = float(np.percentile(arr, 50))
                p95 = float(np.percentile(arr, 95))
            else:  # cluster fell out of the reservoir: mean as fallback
                p50 = p95 = moments.total / moments.n
            out[ci] = moments.stats(p50=p50, p95=p95)
        return out

    def completion_time(self) -> float:
        return self._last_release
