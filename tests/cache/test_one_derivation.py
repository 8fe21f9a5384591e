"""Every cache operation derives its config's canonical key exactly once.

The key text both addresses the entry (its SHA-256) and is compared with
the key stored beside the result, so one derivation serves both; a warm
``reproduce_all`` therefore renders each of its configs once.  Counted by
wrapping ``ExperimentConfig.cache_key``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cache import ExperimentCache
from repro.experiments import (
    ExperimentConfig,
    FigureScale,
    clear_sweep_memo,
    reproduce_all,
    run_experiment,
)
from repro.experiments.figures import sweep_configs
from repro.experiments.parallel import shutdown_warm_pool, warm_pool
from repro.farm import FarmServer, HttpCache

CFG = ExperimentConfig(n_clusters=2, apps_per_cluster=2, n_cs=3, rho=4.0,
                       platform="two-tier")

#: ``benchmarks/system``'s smoke-size ``reproduce_all``: 84 configs.
SMOKE = FigureScale(apps_per_cluster=2, n_cs=4, seeds=(1, 2))


@pytest.fixture
def derived(monkeypatch):
    """The key text of every ``cache_key`` call, in call order."""
    calls = []
    original = ExperimentConfig.cache_key

    def counting(self):
        text = original(self)
        calls.append(text)
        return text

    monkeypatch.setattr(ExperimentConfig, "cache_key", counting)
    return calls


@pytest.fixture(scope="module")
def result():
    return run_experiment(CFG)


def _each_operation_derives_once(cache, result, derived):
    text = CFG.cache_key()
    derived.clear()
    assert cache.get(CFG) is None  # miss
    assert len(derived) == 1
    cache.put(CFG, result)
    assert len(derived) == 2
    assert cache.get(CFG) == result  # hit
    assert derived == [text] * 3
    assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (1, 1, 1)


def test_experiment_cache_derives_once_per_operation(tmp_path, result, derived):
    _each_operation_derives_once(
        ExperimentCache(cache_dir=tmp_path / "cache"), result, derived
    )


def test_http_cache_derives_once_per_operation(tmp_path, result, derived):
    server = FarmServer(farm_dir=tmp_path / "farm", workers=0)
    server.start()
    try:
        _each_operation_derives_once(
            HttpCache(server.url, timeout_s=10.0), result, derived
        )
    finally:
        server.shutdown()


def test_warm_reproduce_all_derives_one_key_per_config(tmp_path, derived):
    try:
        clear_sweep_memo()
        reproduce_all(tmp_path / "cold", SMOKE,  # fills the cache, uncounted
                      cache=ExperimentCache(cache_dir=tmp_path / "cache"))
    finally:
        warm_pool().shutdown(wait=True)
        shutdown_warm_pool()
    configs = sweep_configs("inter", SMOKE) + sweep_configs("intra", SMOKE)
    expected = Counter(config.cache_key() for config in configs)
    assert len(configs) == 84

    cache = ExperimentCache(cache_dir=tmp_path / "cache")
    clear_sweep_memo()
    derived.clear()
    try:
        reproduce_all(tmp_path / "warm", SMOKE, cache=cache)
    finally:
        clear_sweep_memo()
    assert (cache.stats.hits, cache.stats.misses) == (84, 0)
    assert len(derived) == 84
    assert Counter(derived) == expected
