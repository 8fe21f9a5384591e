"""Store concurrency: LRU eviction racing verify-sampling and puts.

Four processes sweep the same config batch against one undersized store
directory, so puts, verification re-runs, and eviction passes interleave
freely.  The store must come out of the race with zero corrupt entries
— a reader sees a complete blob or a miss, never a torn one — each
process's ledger must conserve lookups (``hits + misses`` equals the
configs it swept, eviction or not), and the store must end within its
cap.  The cap is a promise across handles: two handles in one process,
putting in turn, keep the store within it after every put.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cache import store
from repro.cache.store import CacheSpec, ExperimentCache
from repro.experiments import (
    ExperimentConfig,
    run_configs_cached,
    run_experiment,
)

CFG = ExperimentConfig(n_clusters=2, apps_per_cluster=2, n_cs=3, rho=4.0,
                       platform="two-tier")
CONFIGS = [CFG.with_(seed=s) for s in range(8)]

#: Small enough that the batch overflows the cap and every process
#: triggers eviction passes mid-race: about four and a half of these
#: configs' blobs (910 bytes each).
TINY_CAP = 4 * 1024

ROUNDS = 2


def _racing_sweep(spec: CacheSpec) -> dict:
    """One process: repeated sweeps against the shared, undersized store."""
    cache = spec.open()
    totals = []
    for _ in range(ROUNDS):
        results = run_configs_cached(CONFIGS, cache, max_workers=1)
        totals.append([r.total_messages for r in results])
    return {
        "totals": totals,
        "stats": cache.stats.as_dict(),
    }


def test_eviction_verify_put_race_leaves_no_corruption(tmp_path):
    shared = tmp_path / "shared"
    spec = CacheSpec(
        cache_dir=str(shared), max_bytes=TINY_CAP, verify_every=2
    )
    # materialise the fingerprint once so every process agrees cheaply
    spec = spec.open().spec

    try:
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_racing_sweep, spec) for _ in range(4)]
            outcomes = [f.result(timeout=180) for f in futures]
    except OSError:
        pytest.skip("platform cannot spawn worker processes")

    expected = [r.total_messages
                for r in run_configs_cached(CONFIGS, None, max_workers=1)]
    total_lookups = 0
    for outcome in outcomes:
        stats = outcome["stats"]
        # zero corrupt entries observed, and verification never tripped
        assert stats["corrupt"] == 0
        assert stats["verify_failures"] == 0
        # lookups conserved: every config is looked up exactly once per
        # sweep, whether the entry survived eviction or not
        assert stats["hits"] + stats["misses"] == len(CONFIGS) * ROUNDS
        total_lookups += stats["hits"] + stats["misses"]
        # and the results themselves never drifted
        for totals in outcome["totals"]:
            assert totals == expected
    assert total_lookups == 4 * len(CONFIGS) * ROUNDS

    # -- the store itself is left fully readable ----------------------- #
    reader = spec.open()
    blobs = list(shared.rglob("*.pkl"))
    assert blobs, "eviction emptied the store entirely"
    assert reader.total_bytes() <= TINY_CAP
    for path in blobs:
        payload = pickle.loads(path.read_bytes())  # raises if torn
        assert {"key", "result"} <= set(payload)

    # post-race reads are hits-or-recomputes, never corruption
    fresh = ExperimentCache(
        cache_dir=shared, max_bytes=TINY_CAP, verify_every=2
    )
    post = run_configs_cached(CONFIGS, fresh, max_workers=1)
    assert [r.total_messages for r in post] == expected
    assert fresh.stats.corrupt == 0


@pytest.mark.parametrize("ledger_max", [None, 3 * 16],
                         ids=["ledger", "short-ledger"])
def test_the_cap_holds_across_handles_after_every_put(
    tmp_path, monkeypatch, ledger_max
):
    if ledger_max is not None:
        # Every eviction's walk starts a new ledger under the handles.
        monkeypatch.setattr(store, "_LEDGER_MAX", ledger_max)
    results = [run_experiment(c) for c in CONFIGS]
    sizer = ExperimentCache(cache_dir=tmp_path / "sizer", max_bytes=0)
    sizer.put(CONFIGS[0], results[0])
    cap = 5 * sizer.total_bytes() + sizer.total_bytes() // 2  # 5.5 blobs
    shared = tmp_path / "shared"
    handles = [ExperimentCache(cache_dir=shared, max_bytes=cap)
               for _ in range(2)]
    # One put each, then in turn: each handle's own puts alone never
    # reach the cap, only the two together do.
    heads = set()
    for i, (config, result) in enumerate(zip(CONFIGS, results)):
        handles[i % 2].put(config, result)
        assert handles[0].total_bytes() <= cap, f"after put {i + 1}"
        heads.add((shared / ".ledger").read_bytes()[:16])
    assert sum(h.stats.evictions for h in handles) > 0
    assert len(heads) == (1 if ledger_max is None else 2)
    for config, result in zip(CONFIGS, results):
        got = handles[0].get(config)
        assert got is None or got == result
