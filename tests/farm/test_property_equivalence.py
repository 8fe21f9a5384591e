"""Property: a farm sweep is indistinguishable from a single process.

Random config batches at every fleet width (1, 2, 4):
:func:`run_configs_farm` must return results field-for-field
identical to serial :func:`run_configs_cached`, in config order.  The
fleets here run inline (``spawn=False``) so the property sweep stays
fast; real subprocess fleets are exercised by the fault-injection and
server tests.
"""

from __future__ import annotations

import random
from dataclasses import fields

import pytest

from repro.cache.store import ExperimentCache, canonical_dumps
from repro.experiments import ExperimentConfig, run_configs_cached
from repro.farm import run_configs_farm

BASE = ExperimentConfig(n_clusters=2, apps_per_cluster=2, n_cs=3, rho=4.0,
                        platform="two-tier")

#: A small diverse pool the random batches draw from.
POOL = [
    BASE.with_(seed=seed, intra=intra, rho=rho)
    for intra in ("naimi", "martin")
    for rho in (3.0, 5.0)
    for seed in (0, 1, 2)
]


def _random_batch(rng: random.Random) -> list:
    batch = rng.sample(POOL, rng.randint(1, 6))
    rng.shuffle(batch)
    return batch


def _assert_field_for_field(farm_results, serial_results, configs):
    assert len(farm_results) == len(serial_results)
    for config, got, expected in zip(configs, farm_results, serial_results):
        for f in fields(expected):
            assert canonical_dumps(getattr(got, f.name)) == canonical_dumps(
                getattr(expected, f.name)
            ), f"field {f.name} differs for {config.describe()}"
        # results arrive in config order: each embeds its own config
        assert got.config == config


@pytest.mark.parametrize("num_workers", [1, 2, 4])
def test_farm_equals_single_process(tmp_path, num_workers):
    rng = random.Random(1000 * num_workers)
    for round_no in range(2):
        batch = _random_batch(rng)
        serial_cache = ExperimentCache(
            cache_dir=tmp_path / f"serial-{round_no}"
        )
        serial = run_configs_cached(batch, serial_cache, max_workers=1)

        report = run_configs_farm(
            batch,
            num_workers=num_workers,
            farm_dir=tmp_path / f"farm-{round_no}",
            chunk_size=2,
            spawn=False,
            deadline_s=120.0,
        )
        _assert_field_for_field(report.results, serial, batch)
        assert report.worker_stats.verify_failures == 0
        assert (
            report.worker_stats.hits + report.worker_stats.misses
            == len(batch)
        )


def test_warm_resubmission_is_all_hits(tmp_path):
    batch = POOL[:4]
    farm_dir = tmp_path / "farm"
    cold = run_configs_farm(
        batch, num_workers=2, farm_dir=farm_dir, spawn=False,
        deadline_s=120.0,
    )
    assert cold.worker_stats.misses == len(batch)

    # the job is content-addressed: resubmitting the same sweep lands on
    # the already-complete job and just re-reads the store
    warm = run_configs_farm(
        batch, num_workers=2, farm_dir=farm_dir, spawn=False,
        deadline_s=120.0,
    )
    assert warm.job_id == cold.job_id
    assert warm.recovered == 0
    for a, b in zip(warm.results, cold.results):
        assert canonical_dumps(a) == canonical_dumps(b)
