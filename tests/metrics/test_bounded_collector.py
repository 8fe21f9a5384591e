"""BoundedMetricsCollector: exact moments, bounded state, determinism."""

import random

import pytest

from repro.metrics import BoundedMetricsCollector, MetricsCollector
from repro.metrics.collector import _Moments
from repro.metrics.records import CSRecord


def _records(n, seed=0, clusters=4):
    rng = random.Random(seed)
    out = []
    t = 0.0
    for i in range(n):
        req = t
        grant = req + rng.uniform(0.1, 30.0)
        rel = grant + rng.uniform(0.5, 5.0)
        out.append(CSRecord(
            node=i % (clusters * 5),
            cluster=i % clusters,
            requested_at=req,
            granted_at=grant,
            released_at=rel,
        ))
        t += rng.uniform(0.0, 2.0)
    return out


def _fill(collector, records):
    for r in records:
        collector.add(r)
    return collector


def _assert_stats_equal(a, b):
    # Streaming accumulation sums in insertion order while ``summarize``
    # uses numpy's pairwise sum, so mean/std can differ in the last few
    # ulps; everything else must agree exactly.
    assert a.count == b.count
    assert a.mean == pytest.approx(b.mean, rel=1e-12)
    assert a.std == pytest.approx(b.std, rel=1e-9, abs=1e-12)
    assert a.minimum == b.minimum
    assert a.maximum == b.maximum
    assert a.p50 == b.p50
    assert a.p95 == b.p95


def test_below_cap_matches_exact_collector():
    records = _records(500)
    full = _fill(MetricsCollector(), records)
    bounded = _fill(BoundedMetricsCollector(max_records=1000), records)
    assert bounded.cs_count == full.cs_count
    assert bounded.records == full.records  # reservoir never engaged
    _assert_stats_equal(bounded.obtaining_stats(), full.obtaining_stats())
    full_clusters = full.by_cluster()
    bounded_clusters = bounded.by_cluster()
    assert bounded_clusters.keys() == full_clusters.keys()
    for ci in full_clusters:
        _assert_stats_equal(bounded_clusters[ci], full_clusters[ci])
    assert bounded.by_node() == full.by_node()  # inherited: same records
    full_fair = full.fairness()
    for key, value in bounded.fairness().items():
        assert value == pytest.approx(full_fair[key], rel=1e-12)


def test_above_cap_moments_stay_exact_and_state_bounded():
    cap = 256
    records = _records(5000)
    full = _fill(MetricsCollector(), records)
    bounded = _fill(BoundedMetricsCollector(max_records=cap), records)
    assert len(bounded.records) == cap  # the reservoir, not the run
    assert bounded.cs_count == 5000
    exact = full.obtaining_stats()
    approx = bounded.obtaining_stats()
    # Streaming fields are exact; only the percentiles are sampled.
    assert approx.count == exact.count
    assert approx.mean == pytest.approx(exact.mean, rel=1e-12)
    assert approx.std == pytest.approx(exact.std, rel=1e-9)
    assert approx.minimum == exact.minimum
    assert approx.maximum == exact.maximum
    assert approx.p50 == pytest.approx(exact.p50, rel=0.25)
    by_cluster = bounded.by_cluster()
    for ci, exact_c in full.by_cluster().items():
        assert by_cluster[ci].count == exact_c.count
        assert by_cluster[ci].mean == pytest.approx(exact_c.mean, rel=1e-12)
        assert by_cluster[ci].minimum == exact_c.minimum
        assert by_cluster[ci].maximum == exact_c.maximum


def test_reservoir_is_deterministic_for_a_seed():
    records = _records(3000)
    a = _fill(BoundedMetricsCollector(max_records=128, seed=7), records)
    b = _fill(BoundedMetricsCollector(max_records=128, seed=7), records)
    assert a.records == b.records
    assert a.obtaining_stats() == b.obtaining_stats()


def test_empty_collector_summaries():
    bounded = BoundedMetricsCollector()
    assert bounded.cs_count == 0
    assert bounded.obtaining_stats().count == 0
    assert bounded.by_cluster() == {}


def test_rejects_nonpositive_cap():
    with pytest.raises(ValueError):
        BoundedMetricsCollector(max_records=0)


class _ScalarReservoir(BoundedMetricsCollector):
    """The reservoir as it was before slots were block-drawn: one scalar
    ``integers`` call per row past the cap.  The oracle of the block
    draw."""

    def add_cs(self, node, cluster, requested_at, granted_at, released_at):
        t = granted_at - requested_at
        self._all.add(t)
        moments = self._clusters.get(cluster)
        if moments is None:
            moments = self._clusters[cluster] = _Moments()
        moments.add(t)
        row = (node, cluster, requested_at, granted_at, released_at)
        seen = self._all.n - 1  # rows seen before this one
        if seen < self.max_records:
            for column, value in zip(self._columns(), row):
                column.append(value)
        else:
            j = int(self._rng.integers(0, seen + 1))
            if j < self.max_records:
                for column, value in zip(self._columns(), row):
                    column[j] = value


@pytest.mark.parametrize("cap", [1, 7, 64, 8192])
@pytest.mark.parametrize("past", [0, 1, 63, 64, 65, 128, 129, 200])
def test_block_drawn_slots_match_scalar_draws(cap, past):
    records = _records(cap + past, seed=cap + past)
    # Every row is distinct, so equal reservoirs hold the same rows in
    # the same slots.
    assert len({r.requested_at for r in records}) == len(records)
    block = _fill(BoundedMetricsCollector(max_records=cap, seed=5), records)
    scalar = _fill(_ScalarReservoir(max_records=cap, seed=5), records)
    assert [len(column) for column in block._columns()] == [cap] * 5
    assert block._columns() == scalar._columns()


#: p50 / p95 of a 20 000-record run past the default 8 192 cap, overall
#: and per cluster, as the scalar reservoir computed them.
PINNED_PERCENTILES = (
    "(14.972457486034727, 28.511652750728445)",
    "{0: (14.798191217978456, 28.479956422624173), "
    "1: (15.086843524907636, 28.625596169617165), "
    "2: (15.186526929930551, 28.48413974895211), "
    "3: (15.26035321627387, 28.464232150720818), "
    "4: (14.579854165718643, 28.520892831793752)}",
)


def test_percentiles_past_the_cap_are_pinned():
    bounded = _fill(
        BoundedMetricsCollector(seed=3), _records(20000, seed=11, clusters=5)
    )
    overall = bounded.obtaining_stats()
    by_cluster = {
        ci: (s.p50, s.p95) for ci, s in bounded.by_cluster().items()
    }
    assert (repr((overall.p50, overall.p95)), repr(by_cluster)) == (
        PINNED_PERCENTILES
    )
