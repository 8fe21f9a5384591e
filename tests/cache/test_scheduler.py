"""Incremental sweep scheduler and concurrent shared-cache stress tests."""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cache.store import CacheSpec, CacheStats, ExperimentCache
from repro.experiments import (
    ExperimentConfig,
    run_configs_cached,
    run_experiment,
    run_many,
    stream_configs_cached,
)
from repro.experiments.parallel import compute_chunksize

CFG = ExperimentConfig(n_clusters=2, apps_per_cluster=2, n_cs=3, rho=4.0,
                       platform="two-tier")
CONFIGS = [CFG.with_(seed=s) for s in range(4)]


@pytest.fixture
def cache(tmp_path):
    return ExperimentCache(cache_dir=tmp_path / "cache")


class TestStreamConfigsCached:
    def test_cold_sweep_matches_uncached_and_fills_cache(self, cache):
        expected = [run_experiment(c) for c in CONFIGS]
        got = run_configs_cached(CONFIGS, cache, max_workers=2)
        assert got == expected
        assert cache.stats.misses == len(CONFIGS)
        assert cache.stats.stores == len(CONFIGS)

    def test_warm_sweep_is_all_hits_and_identical(self, cache):
        cold = run_configs_cached(CONFIGS, cache, max_workers=2)
        warm = run_configs_cached(CONFIGS, cache, max_workers=2)
        assert warm == cold
        assert cache.stats.hits == len(CONFIGS)

    def test_hits_stream_before_misses(self, cache):
        # warm the first two seeds only
        run_configs_cached(CONFIGS[:2], cache, max_workers=1)
        order = [i for i, _ in stream_configs_cached(CONFIGS, cache,
                                                     max_workers=1)]
        assert order[:2] == [0, 1]          # hits first, in config order
        assert sorted(order[2:]) == [2, 3]  # then the computed misses

    def test_partial_warm_only_computes_misses(self, cache):
        run_configs_cached(CONFIGS[:2], cache, max_workers=1)
        before = cache.stats.snapshot()
        got = run_configs_cached(CONFIGS, cache, max_workers=1)
        assert got == [run_experiment(c) for c in CONFIGS]
        assert cache.stats.hits - before.hits == 2
        assert cache.stats.stores - before.stores == 2

    def test_none_cache_is_plain_parallel(self):
        assert run_configs_cached(CONFIGS, None, max_workers=2) == \
            [run_experiment(c) for c in CONFIGS]

    def test_verified_hits_are_recomputed_not_leaked(self, tmp_path):
        cache = ExperimentCache(cache_dir=tmp_path / "c", verify_every=1)
        run_configs_cached(CONFIGS, cache, max_workers=1)
        # poison one entry so verification must catch and replace it
        stale = run_experiment(CONFIGS[0].with_(n_cs=2))
        cache.put(CONFIGS[0], stale)
        got = run_configs_cached(CONFIGS, cache, max_workers=1)
        assert got == [run_experiment(c) for c in CONFIGS]
        assert cache.stats.verified == len(CONFIGS)
        assert cache.stats.verify_failures == 1
        # the poisoned entry was replaced with the fresh result
        assert cache.get(CONFIGS[0]) == got[0]

    def test_empty_batch_is_rejected(self, cache):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            list(stream_configs_cached([], cache))


class TestRunManyRouting:
    def test_small_seed_batches_run_serially(self, cache, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        def boom(*a, **kw):  # pragma: no cover - must not be reached
            raise AssertionError("small batch must not hit the pool")

        monkeypatch.setattr(parallel_mod, "warm_pool", boom)
        agg = run_many(CFG, seeds=(0, 1, 2), cache=cache)
        assert len(agg.runs) == 3
        # ... and neither do three misses of a larger, partly warm batch
        agg = run_many(CFG, seeds=range(6), cache=cache)
        assert len(agg.runs) == 6

    def test_large_seed_batches_route_through_pool(self, cache):
        seeds = tuple(range(4))  # == POOL_MIN_BATCH
        parallel_agg = run_many(CFG, seeds=seeds, cache=cache)
        serial_agg = run_many(CFG, seeds=seeds, max_workers=1)
        assert parallel_agg.runs == serial_agg.runs
        assert parallel_agg.obtaining == serial_agg.obtaining
        assert cache.stats.stores == len(seeds)

    def test_warm_cache_serves_run_many(self, cache):
        seeds = tuple(range(4))
        cold = run_many(CFG, seeds=seeds, cache=cache)
        warm = run_many(CFG, seeds=seeds, cache=cache)
        assert warm.runs == cold.runs
        assert cache.stats.hits == len(seeds)

    def test_threshold_is_four(self):
        from repro.experiments.parallel import POOL_MIN_BATCH

        assert POOL_MIN_BATCH == 4


# --------------------------------------------------------------------- #
# concurrent shared-cache stress
# --------------------------------------------------------------------- #
def _stress_worker(spec: CacheSpec, seeds, rounds: int):
    """Hammer one shared cache dir: racing put/get over the same keys."""
    cache = spec.open()
    sums = []
    for _ in range(rounds):
        for seed in seeds:
            cfg = CFG.with_(seed=seed)
            result = cache.get(cfg)
            if result is None:
                result = run_experiment(cfg)
                cache.put(cfg, result)
            sums.append(result.total_messages)
    return sums, cache.stats.corrupt, cache.stats.verify_failures


class TestConcurrentSharedCache:
    def test_racing_processes_never_corrupt_the_store(self, tmp_path):
        spec = CacheSpec(cache_dir=str(tmp_path / "shared"))
        seeds = (0, 1, 2)
        expected = [run_experiment(CFG.with_(seed=s)).total_messages
                    for s in seeds]
        try:
            with ProcessPoolExecutor(max_workers=3) as pool:
                futures = [pool.submit(_stress_worker, spec, seeds, 3)
                           for _ in range(3)]
                outcomes = [f.result(timeout=120) for f in futures]
        except OSError:
            pytest.skip("platform cannot spawn worker processes")

        for sums, corrupt, verify_failures in outcomes:
            assert sums == expected * 3
            assert corrupt == 0
            assert verify_failures == 0
        # and the store is left fully readable
        reader = spec.open()
        for s, want in zip(seeds, expected):
            got = reader.get(CFG.with_(seed=s))
            assert got is not None and got.total_messages == want

    def test_concurrent_sweeps_share_one_directory(self, tmp_path):
        cache_a = ExperimentCache(cache_dir=tmp_path / "shared")
        cache_b = ExperimentCache(cache_dir=tmp_path / "shared")
        a = run_configs_cached(CONFIGS, cache_a, max_workers=2)
        b = run_configs_cached(CONFIGS, cache_b, max_workers=2)
        assert a == b
        assert cache_b.stats.hits == len(CONFIGS)  # b reused a's entries


# --------------------------------------------------------------------- #
# worker-side stats plumbing (regression: pool-path stats were dropped)
# --------------------------------------------------------------------- #
class TestPoolPathWorkerStats:
    def test_pool_misses_are_stored_and_counted_by_workers(
        self, cache, monkeypatch
    ):
        try:
            with ProcessPoolExecutor(max_workers=2) as probe:
                probe.submit(int).result(timeout=60)
        except OSError:
            pytest.skip("platform cannot spawn worker processes")

        parent_puts = []
        original_put = cache.put
        monkeypatch.setattr(
            cache, "put",
            lambda cfg, res: (parent_puts.append(cfg), original_put(cfg, res)),
        )
        got = run_configs_cached(CONFIGS, cache, max_workers=2)
        assert got == [run_experiment(c) for c in CONFIGS]
        # the pool workers put their own misses; the parent merges their
        # per-chunk stats instead of dropping them
        assert parent_puts == []
        assert cache.stats.stores == len(CONFIGS)
        assert cache.stats.misses == len(CONFIGS)
        assert cache.stats.hits == 0

    def test_chunks_in_one_process_walk_the_store_once(
        self, tmp_path, monkeypatch
    ):
        # Regression: each chunk opened a fresh handle, whose first put
        # walked every blob under every fingerprint to seed its size
        # estimate.  The chunks of a sweep now share one handle per
        # process; each still reports its own stats exactly once.
        from repro.experiments import parallel

        walks = []
        entries = ExperimentCache.entries
        monkeypatch.setattr(
            ExperimentCache, "entries",
            lambda self: (walks.append(1), entries(self))[1],
        )
        monkeypatch.setattr(parallel, "_chunk_store", threading.local())
        spec = CacheSpec(cache_dir=str(tmp_path / "c"))
        merged = CacheStats()
        chunks = [CONFIGS[:1], CONFIGS[1:3], CONFIGS[3:]]
        for chunk in chunks:
            results, stats = parallel._run_chunk_cached(
                chunk, spec, [True] * len(chunk)
            )
            assert results == [run_experiment(c) for c in chunk]
            assert (stats.stores, stats.hits, stats.misses) == (len(chunk), 0, 0)
            merged.merge(stats)
        assert len(walks) == 1
        assert merged.stores == len(CONFIGS)

    def test_a_pooled_sweep_walks_the_store_once_per_worker(
        self, cache, tmp_path, monkeypatch
    ):
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the walk counter reaches workers only when forked")
        try:
            with ProcessPoolExecutor(max_workers=2) as probe:
                probe.submit(int).result(timeout=60)
        except OSError:
            pytest.skip("platform cannot spawn worker processes")

        # Each walk, in whichever process, appends one line to this file.
        log = tmp_path / "walks"
        entries = ExperimentCache.entries

        def counted(self):
            with open(log, "a") as fh:
                fh.write("walk\n")
            return entries(self)

        monkeypatch.setattr(ExperimentCache, "entries", counted)
        configs = [CFG.with_(seed=s) for s in range(8)]
        assert compute_chunksize(len(configs), 2) == 1  # 8 chunks
        got = run_configs_cached(configs, cache, max_workers=2)
        assert got == [run_experiment(c) for c in configs]
        walks = len(log.read_text().splitlines())
        assert 1 <= walks <= 2  # one per worker process, not one per chunk (8)
        stats = cache.stats
        assert stats.hits + stats.misses == len(configs)
        assert stats.stores == stats.misses == len(configs)

    def test_warm_pool_sweep_counts_hits_parent_side(self, cache):
        run_configs_cached(CONFIGS, cache, max_workers=1)
        before = cache.stats.snapshot()
        run_configs_cached(CONFIGS, cache, max_workers=2)
        assert cache.stats.hits - before.hits == len(CONFIGS)
        assert cache.stats.stores == before.stores  # nothing recomputed
