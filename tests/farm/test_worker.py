"""The farm worker: one store handle per worker, and a chunk budget
checked between configs."""

from __future__ import annotations

import pytest

from repro.cache.store import ExperimentCache
from repro.errors import FarmError
from repro.experiments import ExperimentConfig, run_experiment
from repro.farm import run_configs_farm
from repro.farm.leases import JobStore
from repro.farm.worker import run_one_chunk

CFG = ExperimentConfig(n_clusters=2, apps_per_cluster=2, n_cs=3, rho=4.0,
                       platform="two-tier")
CONFIGS = [CFG.with_(seed=s) for s in range(6)]


def test_a_worker_walks_the_store_once_not_once_per_chunk(
    tmp_path, monkeypatch
):
    # Regression: run_one_chunk opened a fresh handle per chunk, whose
    # first put walked every blob under every fingerprint to seed its
    # size estimate.  A worker (here: each thread of the inline fleet)
    # now keeps one handle across its chunks.
    walks = []
    entries = ExperimentCache.entries
    monkeypatch.setattr(
        ExperimentCache, "entries",
        lambda self: (walks.append(1), entries(self))[1],
    )
    report = run_configs_farm(
        CONFIGS, cache=ExperimentCache(cache_dir=tmp_path / "cache"),
        num_workers=2, farm_dir=tmp_path / "farm", chunk_size=1,
        spawn=False, deadline_s=120.0,
    )
    assert report.inline and report.chunks_total == len(CONFIGS)
    assert 1 <= len(walks) <= 2  # one per worker thread, not one per chunk
    stats = report.worker_stats
    assert stats.hits + stats.misses == len(CONFIGS)
    assert stats.stores == stats.misses == len(CONFIGS)
    assert report.recovered == 0
    assert report.results == [run_experiment(c) for c in CONFIGS]


def test_a_lapsed_budget_releases_the_chunk_between_configs(tmp_path):
    store = JobStore(tmp_path / "farm")
    cache = ExperimentCache(cache_dir=tmp_path / "cache")
    job = store.create_job(
        CONFIGS[:3], cache_spec=cache.spec, chunk_size=3,
        lease_timeout_s=5.0, chunk_timeout_s=0.0,
    )
    assert job.claim("w") == 0
    assert run_one_chunk(job, 0, "w") is False
    assert job.leases() == [] and not job.done_markers()
    # the config it finished before the check is in the store, and the
    # released chunk is a peer's to claim
    assert cache.get(CONFIGS[0]) == run_experiment(CONFIGS[0])
    assert cache.get(CONFIGS[1]) is None
    assert job.claim("peer") == 0


@pytest.mark.parametrize("content", [b"", b"\x80\x05\x95"],
                         ids=["empty", "truncated"])
def test_an_unreadable_config_list_releases_the_claim(tmp_path, content):
    # Regression: an empty configs.pkl raised a bare EOFError, and either
    # way the worker died holding the lease until lease_timeout_s.
    store = JobStore(tmp_path / "farm")
    cache = ExperimentCache(cache_dir=tmp_path / "cache")
    job = store.create_job(
        CONFIGS[:2], cache_spec=cache.spec, chunk_size=2,
        lease_timeout_s=60.0, chunk_timeout_s=60.0,
    )
    job.configs_path.write_bytes(content)
    assert job.claim("w") == 0
    with pytest.raises(FarmError, match="unreadable config list"):
        run_one_chunk(job, 0, "w")
    assert job.leases() == []
