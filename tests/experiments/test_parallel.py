"""Unit tests for the process-parallel runner: the one sweep loop,
driven uncached (``cache=None``: nothing hits, nothing is stored)."""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, run_experiment, run_many
from repro.experiments.parallel import (
    POOL_MIN_BATCH,
    compute_chunksize,
    run_configs_cached,
    shutdown_warm_pool,
    stream_configs_cached,
    warm_pool,
)

CFG = ExperimentConfig(n_clusters=2, apps_per_cluster=2, n_cs=3, rho=4.0,
                       platform="two-tier")
#: the smallest batch the loop hands to a pool
SEEDS = tuple(range(POOL_MIN_BATCH))


def test_parallel_matches_serial_exactly():
    serial = run_many(CFG, seeds=SEEDS, max_workers=1)
    parallel = run_many(CFG, seeds=SEEDS, max_workers=2)
    assert parallel.name == serial.name
    assert parallel.obtaining.mean == serial.obtaining.mean
    assert parallel.obtaining.std == serial.obtaining.std
    assert [r.total_messages for r in parallel.runs] == [
        r.total_messages for r in serial.runs
    ]


def test_run_configs_parallel_preserves_order():
    configs = [CFG.with_(seed=s) for s in (3, 1, 2, 0)]
    results = run_configs_cached(configs, cache=None, max_workers=2)
    assert [r.config.seed for r in results] == [3, 1, 2, 0]
    for r, c in zip(results, configs):
        assert r.total_messages == run_experiment(c).total_messages


def test_single_worker_falls_back_to_serial(monkeypatch):
    import repro.experiments.parallel as parallel_mod

    def boom(*args, **kwargs):  # pragma: no cover - must not be reached
        raise AssertionError("max_workers=1 must not touch a pool")

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", boom)
    configs = [CFG.with_(seed=s) for s in SEEDS]
    assert len(run_configs_cached(configs, cache=None, max_workers=1)) == 4


def test_stream_yields_every_index():
    configs = [CFG.with_(seed=s) for s in SEEDS]
    got = dict(stream_configs_cached(configs, None, max_workers=2))
    assert sorted(got) == list(SEEDS)
    for i, config in enumerate(configs):
        assert got[i].total_messages == run_experiment(config).total_messages


def test_compute_chunksize():
    assert compute_chunksize(3, 2) == 1  # never zero
    assert compute_chunksize(400, 8) == 12  # ~4 chunks per worker
    assert compute_chunksize(0, 4) == 1
    assert compute_chunksize(100, 0) == 25  # degenerate worker count


def test_warm_pool_is_reused_and_matches_serial():
    shutdown_warm_pool()
    configs = [CFG.with_(seed=s) for s in SEEDS]
    first = run_configs_cached(configs, None, max_workers=2, reuse_pool=True)
    pool = warm_pool(2)
    second = run_configs_cached(configs, None, max_workers=2, reuse_pool=True)
    assert warm_pool(2) is pool  # same executor across calls
    serial = [run_experiment(c) for c in configs]
    assert [r.total_messages for r in first] == \
        [r.total_messages for r in serial]
    assert [r.total_messages for r in second] == \
        [r.total_messages for r in serial]
    shutdown_warm_pool()


def test_broken_process_pool_falls_back_to_serial(monkeypatch):
    """A pool whose workers die immediately (e.g. a sandbox forbidding
    fork) must not lose the batch: every config is redone serially."""
    import repro.experiments.parallel as parallel_mod

    class ExplodingPool:
        def __init__(self, *args, **kwargs):
            pass

        def submit(self, fn, *args):
            raise BrokenProcessPool("worker died")

        def shutdown(self, **kwargs):
            pass

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", ExplodingPool)
    configs = [CFG.with_(seed=s) for s in SEEDS]
    results = run_configs_cached(configs, cache=None, max_workers=2)
    assert [r.config.seed for r in results] == list(SEEDS)
    assert all(r.total_messages > 0 for r in results)


def test_broken_pool_mid_batch_redoes_only_missing(monkeypatch):
    """A worker dying mid-sweep costs only the chunks that had not
    completed; finished results are kept, not re-run."""
    import repro.experiments.parallel as parallel_mod

    configs = [CFG.with_(seed=s) for s in SEEDS]
    real = [run_experiment(c) for c in configs]

    class HalfBrokenPool:
        """First submitted chunk succeeds, the rest break."""

        calls = 0

        def __init__(self, *args, **kwargs):
            pass

        def submit(self, fn, chunk, spec, put_mask):
            fut = Future()
            if HalfBrokenPool.calls == 0:
                fut.set_result(([real[0]], None))  # (results, worker stats)
            else:
                fut.set_exception(BrokenProcessPool("worker died"))
            HalfBrokenPool.calls += 1
            return fut

        def shutdown(self, **kwargs):
            pass

    redone = []
    real_run = parallel_mod.run_experiment

    def counting_run(config):
        redone.append(config.seed)
        return real_run(config)

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", HalfBrokenPool)
    monkeypatch.setattr(parallel_mod, "run_experiment", counting_run)
    assert compute_chunksize(len(configs), 2) == 1  # one chunk per config
    results = run_configs_cached(configs, cache=None, max_workers=2)
    assert redone == [1, 2, 3]  # seed 0 came from the pool and was kept
    assert [r.config.seed for r in results] == list(SEEDS)
    assert [r.total_messages for r in results] == \
        [r.total_messages for r in real]


def test_validation():
    with pytest.raises(ConfigurationError):
        run_configs_cached([], cache=None)
    with pytest.raises(ConfigurationError):
        run_many(CFG, seeds=())
    with pytest.raises(ConfigurationError):
        run_configs_cached([CFG.with_(rho=-1.0)], cache=None)
    with pytest.raises(ConfigurationError):
        list(stream_configs_cached([], None))
