"""Direct unit tests for MetricsCollector (previously only covered
indirectly through the report/timeline suites)."""

import pytest

from repro.metrics import CSRecord, MetricsCollector, RecoveryRecord, summarize


def cs(node, cluster, req, wait, hold=1.0):
    return CSRecord(node=node, cluster=cluster, requested_at=req,
                    granted_at=req + wait, released_at=req + wait + hold)


@pytest.fixture
def loaded():
    """Two clusters, three nodes, known waits."""
    c = MetricsCollector()
    c.add(cs(0, 0, req=0.0, wait=2.0))
    c.add(cs(0, 0, req=10.0, wait=4.0))
    c.add(cs(1, 0, req=5.0, wait=6.0))
    c.add(cs(2, 1, req=3.0, wait=12.0, hold=2.0))
    return c


class TestCSAggregation:
    def test_empty_collector(self):
        c = MetricsCollector()
        assert c.cs_count == 0
        assert c.obtaining_times() == []
        assert c.obtaining_stats().count == 0
        assert c.by_cluster() == {}
        assert c.by_node() == {}

    def test_counts_and_times(self, loaded):
        assert loaded.cs_count == 4
        assert loaded.obtaining_times() == [2.0, 4.0, 6.0, 12.0]
        assert loaded.obtaining_stats().mean == 6.0

    def test_by_cluster_groups_and_sorts(self, loaded):
        per = loaded.by_cluster()
        assert list(per) == [0, 1]
        assert per[0].count == 3 and per[0].mean == 4.0
        assert per[1].count == 1 and per[1].mean == 12.0

    def test_by_node_groups(self, loaded):
        per = loaded.by_node()
        assert {n: s.count for n, s in per.items()} == {0: 2, 1: 1, 2: 1}
        assert per[0].mean == 3.0


class TestFairness:
    def test_perfectly_even_load(self):
        c = MetricsCollector()
        for node in range(3):
            c.add(cs(node, 0, req=float(node), wait=5.0))
        fairness = c.fairness()
        assert fairness["obtaining_jain"] == pytest.approx(1.0)
        assert fairness["worst_over_best"] == pytest.approx(1.0)

    def test_skewed_load(self, loaded):
        fairness = loaded.fairness()
        # Node means: 3.0, 6.0, 12.0 — far from even.
        assert fairness["obtaining_jain"] < 1.0
        assert fairness["worst_over_best"] == pytest.approx(4.0)

    def test_empty_collector_reports_neutral_fairness(self):
        fairness = MetricsCollector().fairness()
        assert fairness == {"obtaining_jain": 1.0, "worst_over_best": 1.0}

    def test_zero_wait_best_node_yields_inf_ratio(self):
        c = MetricsCollector()
        c.add(cs(0, 0, req=0.0, wait=0.0))
        c.add(cs(1, 0, req=0.0, wait=3.0))
        assert c.fairness()["worst_over_best"] == float("inf")


class TestRecoveryTracking:
    def test_recovery_records_and_stats(self):
        c = MetricsCollector()
        c.add_recovery(RecoveryRecord(
            kind="token_regeneration", scope="intra/0", reason="deadline",
            detected_at=10.0, completed_at=40.0, elected=1,
        ))
        c.add_recovery(RecoveryRecord(
            kind="failover", scope="cluster/1", reason="heartbeat",
            detected_at=100.0, completed_at=150.0, elected=7,
        ))
        assert c.recovery_times() == [30.0, 50.0]
        stats = summarize(c.recovery_times())
        assert stats.count == 2 and stats.mean == 40.0

    def test_retry_counter_accumulates_per_kind(self):
        c = MetricsCollector()
        c.record_retry("deadline:intra/0")
        c.record_retry("deadline:intra/0")
        c.record_retry("heartbeat:1")
        assert c.retries == {"deadline:intra/0": 2, "heartbeat:1": 1}

    def test_fault_free_run_has_empty_recovery_state(self):
        c = MetricsCollector()
        assert c.recoveries == [] and c.recovery_times() == []
        assert summarize(c.recovery_times()).count == 0
