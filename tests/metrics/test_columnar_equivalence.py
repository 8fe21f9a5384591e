"""The columnar collectors against the record-based ones they replaced.

The oracle below is the record-based code as it was before a CS became
five appended numbers: one frozen :class:`CSRecord` per CS, summaries
read record by record, two ``np.percentile`` calls per summary.  Every
summary of both collectors must come out with the same float ``repr``,
so the change is bit-identical, not merely close.
"""

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import BoundedMetricsCollector, MetricsCollector
from repro.metrics.analysis import SummaryStats, jain_index
from repro.metrics.collector import _SLOT_BLOCK, _Moments
from repro.metrics.records import CSRecord

_EMPTY = SummaryStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def oracle_summarize(values):
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return _EMPTY
    return SummaryStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
    )


class OracleCollector:
    """The record-based exact collector."""

    def __init__(self):
        self.records = []

    def add(self, record):
        self.records.append(record)

    @property
    def cs_count(self):
        return len(self.records)

    def obtaining_times(self):
        return [r.obtaining_time for r in self.records]

    def obtaining_stats(self):
        return oracle_summarize(self.obtaining_times())

    def by_cluster(self):
        groups = defaultdict(list)
        for r in self.records:
            groups[r.cluster].append(r.obtaining_time)
        return {ci: oracle_summarize(v) for ci, v in sorted(groups.items())}

    def by_node(self):
        groups = defaultdict(list)
        for r in self.records:
            groups[r.node].append(r.obtaining_time)
        return {node: oracle_summarize(v) for node, v in sorted(groups.items())}

    def fairness(self):
        per_node = [s.mean for s in self.by_node().values()]
        if not per_node:
            return {"obtaining_jain": 1.0, "worst_over_best": 1.0}
        best = min(per_node)
        return {
            "obtaining_jain": jain_index(per_node),
            "worst_over_best": max(per_node) / best if best else float("inf"),
        }


class OracleBounded(OracleCollector):
    """The record-based bounded collector: a reservoir of records."""

    def __init__(self, max_records=8192, seed=0):
        super().__init__()
        self.max_records = int(max_records)
        self._rng = np.random.default_rng(seed ^ 0x5EED_CA9)
        self._slots = []
        self._all = _Moments()
        self._clusters = {}

    def add(self, record):
        t = record.obtaining_time
        self._all.add(t)
        cluster = self._clusters.get(record.cluster)
        if cluster is None:
            cluster = self._clusters[record.cluster] = _Moments()
        cluster.add(t)
        records = self.records
        seen = self._all.n - 1
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
    def cs_count(self):
        return self._all.n

    def obtaining_stats(self):
        if self._all.n == 0:
            return oracle_summarize(())
        sample = np.asarray(
            [r.obtaining_time for r in self.records], dtype=float
        )
        return self._all.stats(
            p50=float(np.percentile(sample, 50)),
            p95=float(np.percentile(sample, 95)),
        )

    def by_cluster(self):
        groups = defaultdict(list)
        for r in self.records:
            groups[r.cluster].append(r.obtaining_time)
        out = {}
        for ci, moments in sorted(self._clusters.items()):
            sampled = groups.get(ci)
            if sampled:
                arr = np.asarray(sampled, dtype=float)
                p50 = float(np.percentile(arr, 50))
                p95 = float(np.percentile(arr, 95))
            else:
                p50 = p95 = moments.total / moments.n
            out[ci] = moments.stats(p50=p50, p95=p95)
        return out


def view(collector):
    """Every summary a caller can read, as one ``repr``."""
    return repr((
        collector.cs_count,
        collector.obtaining_stats(),
        collector.by_cluster(),
        collector.by_node(),
        collector.fairness(),
        collector.obtaining_times(),
        collector.records,
    ))


# Few distinct values make ties (equal waits, equal keys, zero waits).
_times = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.5, 10.0]),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
_rows = st.lists(
    st.tuples(
        st.integers(0, 6),    # node
        st.integers(0, 3),    # cluster: some have one row or none
        _times,               # requested_at
        _times,               # wait
        _times,               # hold
    ),
    max_size=220,
)


def _records(rows):
    out = []
    for node, cluster, req, wait, hold in rows:
        grant = req + wait
        out.append(CSRecord(node, cluster, req, grant, grant + hold))
    return out


def _fill_both(new, oracle, records, use_add_cs):
    for r in records:
        oracle.add(r)
        if use_add_cs:
            new.add_cs(r.node, r.cluster, r.requested_at, r.granted_at,
                       r.released_at)
        else:
            new.add(r)


@settings(max_examples=120, deadline=None)
@given(rows=_rows, use_add_cs=st.booleans())
def test_exact_collector_matches_the_record_based_one(rows, use_add_cs):
    new, oracle = MetricsCollector(), OracleCollector()
    _fill_both(new, oracle, _records(rows), use_add_cs)
    assert view(new) == view(oracle)


@settings(max_examples=120, deadline=None)
@given(
    rows=_rows,
    cap=st.sampled_from([1, 2, 5, 64, 100, 8192]),
    seed=st.integers(0, 2**16),
    use_add_cs=st.booleans(),
)
def test_bounded_collector_matches_the_record_based_one(
    rows, cap, seed, use_add_cs
):
    new, oracle = BoundedMetricsCollector(cap, seed), OracleBounded(cap, seed)
    _fill_both(new, oracle, _records(rows), use_add_cs)
    assert view(new) == view(oracle)


@pytest.mark.parametrize("cap, count", [(7, 7), (7, 8), (64, 64 + 65),
                                        (100, 700)])
def test_bounded_past_the_cap_matches(cap, count):
    # Counts past the cap, across several slot blocks, deterministically.
    rng = np.random.default_rng(cap * count)
    rows = [
        (int(rng.integers(0, 9)), int(rng.integers(0, 4)), float(i),
         float(rng.exponential(5.0)), float(rng.exponential(1.0)))
        for i in range(count)
    ]
    new, oracle = BoundedMetricsCollector(cap, 3), OracleBounded(cap, 3)
    _fill_both(new, oracle, _records(rows), True)
    assert new.cs_count == count and len(new.records) == cap
    assert view(new) == view(oracle)
    # The reservoir is five columns, slot for slot the oracle's records.
    assert new._columns() == tuple(
        [getattr(r, field) for r in oracle.records]
        for field in ("node", "cluster", "requested_at", "granted_at",
                      "released_at")
    )


@pytest.mark.parametrize("factory", [MetricsCollector, BoundedMetricsCollector])
def test_empty_collectors_match(factory):
    oracle = OracleBounded() if factory is BoundedMetricsCollector else (
        OracleCollector()
    )
    assert view(factory()) == view(oracle)


def _unchecked_record(req, grant, rel):
    """A CSRecord that skipped its own check, to reach ``add``'s."""
    record = object.__new__(CSRecord)
    for name, value in (("node", 0), ("cluster", 0), ("requested_at", req),
                        ("granted_at", grant), ("released_at", rel)):
        object.__setattr__(record, name, value)
    return record


NAN = math.nan


@pytest.mark.parametrize("factory", [MetricsCollector, BoundedMetricsCollector])
@pytest.mark.parametrize("req, grant, rel", [
    (2.0, 1.0, 3.0), (1.0, 3.0, 2.0), (NAN, 1.0, 2.0), (1.0, NAN, 2.0),
    (1.0, 2.0, NAN),
])
def test_bad_timestamps_are_refused_with_the_record_message(
    factory, req, grant, rel
):
    message = f"inconsistent CS timestamps: req={req} grant={grant} rel={rel}"
    with pytest.raises(ValueError) as from_record:
        CSRecord(0, 0, req, grant, rel)
    assert str(from_record.value) == message
    collector = factory()
    with pytest.raises(ValueError) as from_add_cs:
        collector.add_cs(0, 0, req, grant, rel)
    with pytest.raises(ValueError) as from_add:
        collector.add(_unchecked_record(req, grant, rel))
    assert str(from_add_cs.value) == str(from_add.value) == message
    assert collector.cs_count == 0 and collector.records == []
    assert view(collector) == view(factory())
