"""Acceptance benchmarks for the experiment cache.

These tests assert the cache acceptance criteria hold on the machine
at hand, on a small version of the Fig. 4 ρ/N sweep:

* a warm-cache sweep is at least 10x faster than a cold one;
* a cold cache costs a bounded absolute time per stored cell (best of
  five to reject scheduler noise);
* a warm hit costs a bounded absolute time (best of five);
* so does a whole smoke-scale warm ``reproduce_all`` call (best of five).
"""

import tempfile
import time
from typing import List, Optional

from repro.cache import ExperimentCache
from repro.experiments import (
    ExperimentConfig,
    FigureScale,
    clear_sweep_memo,
    reproduce_all,
)
from repro.experiments.parallel import (
    run_configs_cached,
    shutdown_warm_pool,
    warm_pool,
)


def _fig4_sweep_configs() -> List[ExperimentConfig]:
    """A small version of the Fig. 4 ρ/N sweep (one seed per cell)."""
    return [
        ExperimentConfig(
            system="composition",
            intra="naimi",
            inter="naimi",
            platform="grid5000",
            n_clusters=9,
            apps_per_cluster=3,
            n_cs=6,
            rho=rho_over_n * 27,
            seed=1,
        )
        for rho_over_n in (0.25, 0.5, 1.0, 2.0)
    ]


def _timed_sweep(
    configs: List[ExperimentConfig], cache: Optional[ExperimentCache]
) -> float:
    """Wall seconds of one serial pass of the sweep through the
    cache-aware runner.

    Serial (``max_workers=1``) so the measurement is the cache code path
    itself, not process-pool scheduling.
    """
    t0 = time.perf_counter()
    run_configs_cached(configs, cache, max_workers=1)
    return time.perf_counter() - t0


def _cold_cache() -> float:
    """Every cell misses: execution plus the store's write path."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        return _timed_sweep(_fig4_sweep_configs(), ExperimentCache(cache_dir=tmp))


def _warm_cache() -> float:
    """Every cell hits: the read path only (population is untimed)."""
    configs = _fig4_sweep_configs()
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        run_configs_cached(configs, ExperimentCache(cache_dir=tmp), max_workers=1)
        return _timed_sweep(configs, ExperimentCache(cache_dir=tmp))


def test_warm_sweep_is_at_least_10x_faster_than_cold():
    cold = _cold_cache()
    warm = min(_warm_cache() for _ in range(3))
    speedup = cold / warm
    print(f"fig4 sweep: cold {cold:.3f}s, warm {warm:.4f}s "
          f"({speedup:.0f}x)")
    assert speedup >= 10.0, (
        f"warm cache only {speedup:.1f}x faster than cold"
    )


#: What one ``ExperimentCache.put`` may cost.  The 2-core reference host
#: reads 0.87-0.89 ms (best of five, three times over; ``cache.put_us`` of
#: benchmarks/system is the same measurement: 0.8-0.9 ms): the budget
#: leaves a slower disk a little over three times that.
PUT_BUDGET_US = 3000.0


def test_cold_cache_overhead_is_small():
    # What a cold cache adds to a sweep is one `put` per cell.  Stated in
    # absolute time per put, not as a share of the sweep: the sweep is
    # four ~8 ms runs, so a ratio fails whenever the simulator gets
    # faster (ROADMAP 4(g)).  Best of five to reject scheduler noise.
    configs = _fig4_sweep_configs()
    results = run_configs_cached(configs, None, max_workers=1)
    best = float("inf")
    for _ in range(5):
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
            cache = ExperimentCache(cache_dir=tmp)
            t0 = time.perf_counter()
            for config, result in zip(configs, results):
                cache.put(config, result)
            best = min(best, (time.perf_counter() - t0) / len(configs))
    print(f"cold cache: {best * 1e6:.0f} us per put (budget {PUT_BUDGET_US:.0f})")
    assert best * 1e6 <= PUT_BUDGET_US, (
        f"one cache put takes {best * 1e6:.0f} us, budget {PUT_BUDGET_US:.0f} us"
    )


#: What one ``ExperimentCache.get`` hit may cost: key derivation, the
#: read, the unpickle, the stored-key check and the recency touch.  The
#: 2-core reference host (CPython 3.11.7) reads 34-41 us (best of five,
#: nine times over, two outliers at 63 and 68 us; 41-87 us while every hit
#: built its address through pathlib): the budget is about three times
#: that.
GET_BUDGET_US = 120.0


def test_warm_cache_hit_is_cheap():
    # Absolute time per hit, like PUT_BUDGET_US; best of five.
    configs = _fig4_sweep_configs()
    results = run_configs_cached(configs, None, max_workers=1)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = ExperimentCache(cache_dir=tmp)
        for config, result in zip(configs, results):
            cache.put(config, result)
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for config in configs:
                assert cache.get(config) is not None
            best = min(best, (time.perf_counter() - t0) / len(configs))
    print(f"warm cache: {best * 1e6:.0f} us per get (budget {GET_BUDGET_US:.0f})")
    assert best * 1e6 <= GET_BUDGET_US, (
        f"one cache get takes {best * 1e6:.0f} us, budget {GET_BUDGET_US:.0f} us"
    )


#: What one smoke-scale warm ``reproduce_all`` call may cost (all six
#: figures, 84 hits): deriving the configs, the hits, aggregation and the
#: export, so a regression anywhere in the warm call shows, not only in
#: ``get``.  The 2-core reference host (CPython 3.11.7) reads 4.7-6.1 ms
#: (best of five, nine times over, one outlier at 9.7 ms; 7.2-11.8 ms while
#: each derived config went through ``dataclasses.replace``): the budget
#: is about three times that.
WARM_CALL_BUDGET_MS = 18.0


def test_warm_reproduce_all_call_is_cheap():
    scale = FigureScale(apps_per_cluster=2, n_cs=4, seeds=(1, 2))
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        out_dir = f"{tmp}/figures"
        cache = ExperimentCache(cache_dir=f"{tmp}/cache")
        try:
            reproduce_all(out_dir, scale, cache=cache)  # fills the cache
        finally:
            warm_pool().shutdown(wait=True)  # no worker exits during timing
            shutdown_warm_pool()
        best = float("inf")
        for _ in range(5):
            clear_sweep_memo()
            before = cache.stats.snapshot()
            t0 = time.perf_counter()
            reproduce_all(out_dir, scale, cache=cache)
            best = min(best, time.perf_counter() - t0)
            assert cache.stats.hits - before.hits == 84
            assert cache.stats.misses == before.misses
        clear_sweep_memo()
    print(f"warm reproduce_all: {best * 1e3:.2f} ms per call "
          f"(budget {WARM_CALL_BUDGET_MS:.0f})")
    assert best * 1e3 <= WARM_CALL_BUDGET_MS, (
        f"one warm reproduce_all takes {best * 1e3:.2f} ms, "
        f"budget {WARM_CALL_BUDGET_MS:.0f} ms"
    )
