"""Unit tests for the lease-file work queue (jobs, claims, takeover)."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cache.store import CacheStats, ExperimentCache
from repro.errors import FarmError
from repro.experiments import ExperimentConfig
from repro.farm.leases import JobStore, default_chunks, job_id_for

CFG = ExperimentConfig(n_clusters=2, apps_per_cluster=2, n_cs=3, rho=4.0,
                       platform="two-tier")
CONFIGS = [CFG.with_(seed=s) for s in range(5)]


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "farm")


@pytest.fixture
def spec(tmp_path):
    return ExperimentCache(cache_dir=tmp_path / "cache").spec


def make_job(store, spec, configs=CONFIGS, chunk_size=2,
             lease_timeout_s=5.0):
    return store.create_job(
        configs, cache_spec=spec, chunk_size=chunk_size,
        lease_timeout_s=lease_timeout_s, chunk_timeout_s=60.0,
    )


class TestJobIds:
    def test_content_addressed(self):
        a = job_id_for(CONFIGS, "fp")
        assert a == job_id_for(list(CONFIGS), "fp")
        assert a != job_id_for(CONFIGS[:-1], "fp")
        assert a != job_id_for(CONFIGS, "other-fp")

    def test_backend_is_not_part_of_the_identity(self):
        # backend is excluded from cache keys, so the job converges too
        compiled = [c.with_(backend="compiled") for c in CONFIGS]
        assert job_id_for(CONFIGS, "fp") == job_id_for(compiled, "fp")


class TestChunks:
    def test_contiguous_cover(self):
        chunks = default_chunks(5, 2)
        assert chunks == [[0, 1], [2, 3], [4]]

    def test_bad_chunk_size(self):
        with pytest.raises(FarmError):
            default_chunks(5, 0)


class TestJobCreation:
    def test_create_is_idempotent(self, store, spec):
        a = make_job(store, spec, chunk_size=2)
        b = make_job(store, spec, chunk_size=3)  # different chunking
        assert a.job_id == b.job_id
        # first submission's manifest wins: chunking cannot change mid-run
        assert b.chunks == default_chunks(len(CONFIGS), 2)

    def test_manifest_round_trip(self, store, spec):
        job = make_job(store, spec)
        assert job.exists()
        assert job.n_configs == len(CONFIGS)
        assert job.lease_timeout_s == 5.0
        assert job.load_configs() == CONFIGS
        assert job.cache_spec().cache_dir == spec.cache_dir

    def test_manifest_cache_field_is_the_spec(self, store, spec):
        job = make_job(store, spec)
        assert job.cache_spec() == spec

    def test_an_old_manifest_is_refused_by_name(self, store, spec):
        job = make_job(store, spec)
        manifest = json.loads(job.manifest_path.read_text())
        manifest["version"] = 1
        manifest["cache"] = {"kind": "fs", "cache_dir": spec.cache_dir,
                             "max_bytes": spec.max_bytes,
                             "fingerprint": spec.fingerprint}
        job.manifest_path.write_text(json.dumps(manifest))
        stale = store.job(job.job_id)  # a fresh handle re-reads it
        with pytest.raises(FarmError, match="version 1") as exc:
            stale.cache_spec()
        assert str(job.manifest_path) in str(exc.value)

    def test_empty_submission_rejected(self, store, spec):
        with pytest.raises(FarmError):
            make_job(store, spec, configs=[])

    def test_unknown_job_does_not_exist(self, store, spec):
        assert not store.job("feedfacefeedface").exists()
        with pytest.raises(FarmError):
            store.job("feedfacefeedface").manifest  # noqa: B018

    def test_list_jobs(self, store, spec):
        assert store.list_jobs() == []
        job = make_job(store, spec)
        assert [j.job_id for j in store.list_jobs()] == [job.job_id]


class TestClaims:
    def test_exclusive_claims_in_order(self, store, spec):
        job = make_job(store, spec)  # 3 chunks
        assert job.claim("a") == 0
        assert job.claim("b") == 1
        assert job.claim("c") == 2
        assert job.claim("d") is None

    def test_a_chunk_completed_during_the_scan_is_not_claimed_again(
        self, store, spec, monkeypatch
    ):
        # b's scan reads chunk 0 as not done; its owner then completes
        # it and drops the lease before b tries that lease.
        job = make_job(store, spec)
        assert job.claim("a") == 0
        try_claim = job._try_claim

        def racing(chunk_id, worker_id):
            if chunk_id == 0:
                job.complete(0, "a", CacheStats())
            return try_claim(chunk_id, worker_id)

        monkeypatch.setattr(job, "_try_claim", racing)
        assert job.claim("b") == 1
        assert job.done_markers()[0]["worker"] == "a"
        assert not job._lease_path(0).exists()

    def test_done_chunks_are_skipped(self, store, spec):
        job = make_job(store, spec)
        job.complete(0, "ghost", CacheStats())
        assert job.claim("a") == 1

    def test_stale_lease_is_taken_over(self, store, spec):
        job = make_job(store, spec, lease_timeout_s=1.0)
        assert job.claim("slow") == 0
        lease = job._lease_path(0)
        past = time.time() - 10.0
        os.utime(lease, (past, past))
        assert job.claim("thief") == 0
        # the original owner can no longer extend the thief's lease
        assert not job.heartbeat(0, "slow")
        assert job.heartbeat(0, "thief")

    def test_fresh_lease_is_not_stolen(self, store, spec):
        job = make_job(store, spec, lease_timeout_s=60.0)
        assert job.claim("owner") == 0
        assert job.claim("thief") == 1  # next chunk, not a takeover

    def test_release_requires_ownership(self, store, spec):
        job = make_job(store, spec)
        job.claim("owner")
        job.release(0, "stranger")
        assert job.leases()[0].worker == "owner"
        job.release(0, "owner")
        assert job.leases() == []


class TestCompletion:
    def test_complete_publishes_marker_and_drops_lease(self, store, spec):
        job = make_job(store, spec)
        job.claim("w")
        stats = CacheStats(misses=2, stores=2)
        job.complete(0, "w", stats)
        markers = job.done_markers()
        assert markers[0]["indices"] == [0, 1]
        assert markers[0]["stats"]["stores"] == 2
        assert job.leases() == []
        assert not job.is_complete()

    def test_merged_stats_sum_across_chunks(self, store, spec):
        job = make_job(store, spec)
        job.complete(0, "a", CacheStats(hits=1, misses=1))
        job.complete(1, "b", CacheStats(misses=2, stores=2))
        job.complete(2, "a", CacheStats(hits=1))
        merged = job.merged_stats()
        assert (merged.hits, merged.misses, merged.stores) == (2, 3, 2)
        assert job.is_complete()

    def test_re_execution_completes_exactly_once(self, store, spec):
        job = make_job(store, spec)
        job.complete(0, "first", CacheStats(misses=2))
        job.complete(0, "second", CacheStats(hits=2))  # post-steal redo
        markers = job.done_markers()
        assert len(markers) == 1
        assert markers[0]["worker"] == "second"  # replaced, not duplicated

    def test_reopen_chunks(self, store, spec):
        job = make_job(store, spec)
        for cid in range(3):
            job.complete(cid, "w", CacheStats())
        assert job.reopen_chunks([1]) == 1
        assert not job.is_complete()
        assert job.claim("w") == 1

    def test_status_shape(self, store, spec):
        job = make_job(store, spec)
        job.complete(0, "w", CacheStats(misses=2))
        job.claim("x")
        status = job.status()
        assert status["chunks_done"] == 1
        assert status["configs_done"] == 2
        assert status["configs_total"] == len(CONFIGS)
        assert status["leases"] == 1
        assert not status["complete"]
        json.dumps(status)  # must stay JSON-serialisable for the server


class TestDrain:
    def test_drain_marker_lifecycle(self, store):
        assert not store.draining()
        store.request_drain()
        assert store.draining()
        store.drain_path.unlink()
        assert not store.draining()
