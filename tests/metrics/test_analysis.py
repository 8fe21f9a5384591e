"""Unit tests for metric records, summaries and pooling."""

import copy
import dataclasses
import pickle
import pickletools

import numpy as np
import pytest

from repro.cache.store import canonical_dumps
from repro.metrics import (
    CSRecord,
    MetricsCollector,
    SummaryStats,
    jain_index,
    pooled,
    summarize,
)


def rec(node=0, cluster=0, req=0.0, grant=1.0, rel=2.0):
    return CSRecord(node, cluster, req, grant, rel)


def test_cs_record_derived_metrics():
    r = rec(req=5.0, grant=8.0, rel=18.0)
    assert r.obtaining_time == 3.0
    assert r.cs_duration == 10.0


def test_cs_record_rejects_inconsistent_timestamps():
    with pytest.raises(ValueError):
        rec(req=5.0, grant=4.0, rel=6.0)
    with pytest.raises(ValueError):
        rec(req=1.0, grant=2.0, rel=1.5)


def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.count == 4
    assert s.mean == 2.5
    assert s.std == pytest.approx(np.std([1, 2, 3, 4]))
    assert s.minimum == 1.0 and s.maximum == 4.0
    assert s.p50 == 2.5
    assert s.relative_std == pytest.approx(s.std / 2.5)


def test_summarize_empty():
    s = summarize([])
    assert s.count == 0
    assert s.mean == 0.0
    assert s.relative_std == 0.0


def test_pooled_matches_concatenation():
    rng = np.random.default_rng(1)
    a = rng.exponential(10.0, 100).tolist()
    b = rng.exponential(3.0, 57).tolist()
    c = rng.normal(20.0, 5.0, 23).tolist()
    combined = summarize(a + b + c)
    piecewise = pooled([summarize(a), summarize(b), summarize(c)])
    assert piecewise.count == combined.count
    assert piecewise.mean == pytest.approx(combined.mean)
    assert piecewise.std == pytest.approx(combined.std)
    assert piecewise.minimum == combined.minimum
    assert piecewise.maximum == combined.maximum


def test_pooled_skips_empty_and_handles_all_empty():
    s = summarize([5.0])
    assert pooled([summarize([]), s]).count == 1
    assert pooled([]).count == 0
    assert pooled([summarize([])]).count == 0


def test_pooled_matches_concatenation_across_random_splits():
    """Property: however a sample is partitioned into runs,
    ``pooled(map(summarize, parts))`` reproduces ``summarize(whole)``
    exactly for count/mean/std/min/max (percentiles are approximate by
    design and excluded)."""
    rng = np.random.default_rng(42)
    for trial in range(20):
        sample = rng.exponential(7.0, int(rng.integers(1, 200))).tolist()
        whole = summarize(sample)
        # Random partition: cut points drawn uniformly, parts may be empty.
        n_parts = int(rng.integers(1, 6))
        cuts = sorted(rng.integers(0, len(sample) + 1, n_parts - 1).tolist())
        bounds = [0] + cuts + [len(sample)]
        parts = [sample[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        piecewise = pooled([summarize(p) for p in parts])
        assert piecewise.count == whole.count
        assert piecewise.mean == pytest.approx(whole.mean, rel=1e-12)
        assert piecewise.std == pytest.approx(whole.std, rel=1e-9, abs=1e-12)
        assert piecewise.minimum == whole.minimum
        assert piecewise.maximum == whole.maximum


def test_jain_index_basic_and_edges():
    # Perfect equality and the 1/n worst case.
    assert jain_index([4.0, 4.0, 4.0]) == pytest.approx(1.0)
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    # Edge cases: empty sample and all-zero values are defined as
    # "perfectly fair" (nothing was distributed unevenly).
    assert jain_index([]) == 1.0
    assert jain_index([0.0, 0.0]) == 1.0
    # Scale invariance: multiplying all values by a constant is a no-op.
    vals = [1.0, 2.0, 3.0, 4.0]
    assert jain_index([10 * v for v in vals]) == pytest.approx(
        jain_index(vals)
    )
    # Bounds: 1/n <= J <= 1 for any non-negative sample.
    rng = np.random.default_rng(7)
    sample = rng.exponential(2.0, 50).tolist()
    j = jain_index(sample)
    assert 1.0 / len(sample) <= j <= 1.0


def test_collector_aggregations():
    c = MetricsCollector()
    c.add(rec(node=1, cluster=0, req=0.0, grant=2.0, rel=3.0))
    c.add(rec(node=2, cluster=1, req=0.0, grant=6.0, rel=9.0))
    c.add(rec(node=1, cluster=0, req=10.0, grant=14.0, rel=15.0))
    assert c.cs_count == 3
    assert c.obtaining_times() == [2.0, 6.0, 4.0]
    assert c.obtaining_stats().mean == 4.0
    by_cluster = c.by_cluster()
    assert set(by_cluster) == {0, 1}
    assert by_cluster[0].count == 2
    assert by_cluster[0].mean == 3.0
    by_node = c.by_node()
    assert by_node[1].count == 2


def test_collector_empty():
    c = MetricsCollector()
    assert c.cs_count == 0
    assert c.obtaining_stats().count == 0


def test_summary_str_renders():
    s = summarize([1.0, 2.0])
    text = str(s)
    assert "mean=1.500ms" in text and "σ_r" in text


def test_summary_stats_is_slotted_and_pickles_by_position():
    s = summarize([1.0, 2.0, 4.5])
    assert not hasattr(s, "__dict__")
    for blob in (pickle.dumps(s), canonical_dumps(s)):
        strings = {arg for op, arg, _ in pickletools.genops(blob)
                   if isinstance(arg, str)}
        # The class is named; its seven fields are not.
        assert strings == {"repro.metrics.analysis", "SummaryStats"}
        clone = pickle.loads(blob)
        assert type(clone) is SummaryStats and clone == s
    for clone in (copy.copy(s), copy.deepcopy(s)):
        assert type(clone) is SummaryStats and clone == s
        assert clone.relative_std == s.relative_std


@pytest.mark.parametrize("name", ["mean", "bogus"])
def test_summary_stats_refuses_any_attribute_as_frozen(name):
    # A field and an unknown name alike: FrozenInstanceError, never the
    # TypeError a slots=True rebuild raised for the unknown one.
    s = summarize([1.0, 2.0, 3.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(s, name, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(s, name)
    assert not hasattr(s, "__dict__")
    assert pickle.loads(pickle.dumps(s)) == s
