"""Process-parallel experiment execution.

Paper-scale sweeps (`REPRO_FULL=1`) run hundreds of independent
simulations; each is single-threaded and deterministic, so spreading
seeds (or whole configurations) over worker processes is free
parallelism: results are bit-identical to serial execution because
every run depends only on its configuration.

Uses ``concurrent.futures.ProcessPoolExecutor``; configurations and
results are plain picklable dataclasses.  Runs in-process when
``max_workers`` is 1, when the batch is too small to repay a pool round
trip (:data:`POOL_MIN_BATCH`) or when the platform cannot spawn workers,
so callers can use it unconditionally.

Performance notes
-----------------
* Work is submitted in *chunks* whose size is computed from the batch
  and worker counts (4 chunks per worker balances scheduling overhead
  against tail latency), instead of one ``pool.map`` over the batch.
* Submission is per-chunk futures, so results stream back as they
  complete (:func:`stream_configs_cached`) and a worker dying
  mid-sweep (``BrokenProcessPool``) only forces the **missing** chunks
  to be redone serially — completed results are kept.
* A sweep can reuse one warm executor across many calls
  (``reuse_pool=True`` / :func:`warm_pool`), avoiding a process-spawn
  per call; runs stay bit-identical either way.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Iterator, List, Optional, Sequence, Tuple

from ..cache.retry import with_retries
from ..cache.store import CacheSpec, CacheStats, ExperimentCache
from ..errors import ConfigurationError
from .config import ExperimentConfig
from .runner import ExperimentResult, run_experiment

__all__ = [
    "POOL_MIN_BATCH",
    "run_configs_cached",
    "stream_configs_cached",
    "warm_pool",
    "shutdown_warm_pool",
    "compute_chunksize",
]

#: Batches smaller than this run in-process: a pool round trip costs
#: more than two or three quick runs.
POOL_MIN_BATCH = 4

#: Errors meaning "this platform/pool cannot run the batch": fall back.
_POOL_ERRORS = (OSError, PermissionError, BrokenProcessPool)

_warm_pool: Optional[ProcessPoolExecutor] = None
_warm_workers: Optional[int] = None


def warm_pool(max_workers: Optional[int] = None) -> ProcessPoolExecutor:
    """Return the shared long-lived executor, creating it on first use.

    Reusing one warm pool across a sweep's many ``run_configs_cached``
    calls skips a worker-process spawn (and numpy import) per call.  A
    pool created for a different explicit ``max_workers`` is replaced.
    """
    global _warm_pool, _warm_workers
    if _warm_pool is not None and (
        max_workers is None or max_workers == _warm_workers
    ):
        return _warm_pool
    shutdown_warm_pool()
    _warm_pool = ProcessPoolExecutor(max_workers=max_workers)
    _warm_workers = max_workers
    return _warm_pool


def shutdown_warm_pool() -> None:
    """Shut the shared executor down (no-op when none exists).

    Registered via :mod:`atexit`; call it explicitly after a sweep to
    release the worker processes early."""
    global _warm_pool, _warm_workers
    if _warm_pool is not None:
        _warm_pool.shutdown(wait=False, cancel_futures=True)
        _warm_pool = None
        _warm_workers = None


atexit.register(shutdown_warm_pool)


def compute_chunksize(n_items: int, workers: int) -> int:
    """Chunk size giving ~4 chunks per worker.

    Large enough to amortise pickling/dispatch on big sweeps, small
    enough that one slow chunk cannot starve the pool's tail."""
    return max(1, n_items // (max(1, workers) * 4))


#: This thread's store handle for chunks and the spec it was opened
#: from (see :func:`_chunk_cache`).
_chunk_store = threading.local()


def _chunk_cache(spec: CacheSpec) -> ExperimentCache:
    """The handle a chunk stores through, with fresh :class:`CacheStats`.

    One handle per spec per worker — a pool worker process, a farm
    worker process, or a thread of the farm's inline fleet — so the
    running size estimate its first put pays for (a walk of the whole
    store) is paid once per worker, not once per chunk.  Like every
    handle's estimate it is advisory: the authority is the rescan
    before an eviction.
    """
    held = getattr(_chunk_store, "held", None)
    if held is None or held[0] != spec:
        held = _chunk_store.held = (spec, spec.open())
    cache = held[1]
    cache.stats = CacheStats()
    return cache


def _run_chunk_cached(
    configs: List[ExperimentConfig],
    spec: Optional[CacheSpec],
    put_mask: List[bool],
) -> Tuple[List[ExperimentResult], Optional[CacheStats]]:
    """Worker-side chunk executor.

    Opens the shared store from its picklable spec (fingerprint
    included, so the source tree is not re-hashed per chunk; the handle
    is kept for the next chunk, see :func:`_chunk_cache`), runs each
    configuration, and stores the results the parent marked as misses
    directly from this process — the puts are what makes a farm chunk
    idempotent, and the chunk's own :class:`CacheStats` ride back with
    the results so the parent can :meth:`~CacheStats.merge` them into
    the totals it reports.  Transient store errors retry with backoff
    rather than failing the whole chunk.  An uncached sweep has no spec
    and an all-false mask.
    """
    cache = _chunk_cache(spec) if spec is not None else None
    results: List[ExperimentResult] = []
    for config, do_put in zip(configs, put_mask):
        result = run_experiment(config)
        results.append(result)
        if do_put:
            with_retries(lambda: cache.put(config, result))
    return results, cache.stats if cache is not None else None


def _stream_cached_exec(
    configs: Sequence[ExperimentConfig],
    put_mask: Sequence[bool],
    cache: Optional[ExperimentCache],
    max_workers: Optional[int],
    reuse_pool: bool,
) -> Iterator[Tuple[int, ExperimentResult, bool]]:
    """The execution loop: yields ``(index, result, stored_by_worker)``
    triples as runs complete.

    On the pool path each chunk runs via :func:`_run_chunk_cached` on a
    worker handle opened from ``cache``'s spec (worker handles never
    verify), so the worker itself stores the masked results and its
    stats are merged into ``cache.stats`` as the chunk completes.  Runs
    made in-process — the whole batch when a pool would not pay, or
    what a failed pool left — yield ``stored_by_worker=False`` and leave
    storing to the caller, which holds ``cache``.
    """
    done_idx: set = set()
    if max_workers != 1 and len(configs) >= POOL_MIN_BATCH:
        spec = replace(cache.spec, verify_every=0) if cache is not None else None
        try:
            pool = warm_pool(max_workers) if reuse_pool else ProcessPoolExecutor(
                max_workers=max_workers
            )
            try:
                size = compute_chunksize(
                    len(configs), max_workers or os.cpu_count() or 1
                )
                futures = {}
                for start in range(0, len(configs), size):
                    idxs = list(range(start, min(start + size, len(configs))))
                    fut = pool.submit(
                        _run_chunk_cached,
                        [configs[i] for i in idxs],
                        spec,
                        [put_mask[i] for i in idxs],
                    )
                    futures[fut] = idxs
                pending = set(futures)
                while pending:
                    finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                    # Deterministic processing order (by first index) so a
                    # mid-batch failure always keeps the earliest results.
                    for fut in sorted(finished, key=lambda f: futures[f][0]):
                        idxs = futures[fut]
                        results, worker_stats = fut.result()
                        if cache is not None:
                            cache.stats.merge(worker_stats)
                        for i, result in zip(idxs, results):
                            done_idx.add(i)
                            yield i, result, put_mask[i]
            finally:
                if not reuse_pool:
                    pool.shutdown(wait=False, cancel_futures=True)
        except _POOL_ERRORS:
            # No subprocess capability here (sandbox forbids fork), or a
            # worker died mid-batch: anything already yielded is kept
            # (its chunk's puts and stats landed with it); only the
            # missing configurations are redone below.  Runs are
            # deterministic, so the redo is exact.
            if reuse_pool:
                shutdown_warm_pool()  # a broken shared pool must not linger
    for i, config in enumerate(configs):
        if i not in done_idx:
            yield i, run_experiment(config), False


def stream_configs_cached(
    configs: Sequence[ExperimentConfig],
    cache: Optional[ExperimentCache],
    max_workers: Optional[int] = None,
    reuse_pool: bool = False,
) -> Iterator[Tuple[int, ExperimentResult]]:
    """The incremental sweep scheduler: hits stream first, misses run.

    Yields ``(index, result)`` pairs.  Partitions ``configs`` against
    the experiment cache: hits are yielded immediately (in config
    order), then the misses — and any hits sampled for verification —
    are submitted to the (warm) pool in chunks and yielded as they
    complete, so progress is observable before the batch finishes and a
    broken pool only costs the chunks that had not completed.  Fresh
    results are stored back into the cache (every put retried with
    backoff on transient store errors), so concurrent sweeps sharing a
    cache directory converge after one racing window.  With
    ``cache=None`` nothing hits and nothing is stored.

    This is the one cached-lookup policy: ``run_experiment(config,
    cache)``, the farm's workers and its collector all go through it,
    and nothing else samples hits for verification.
    """
    if not configs:
        raise ConfigurationError("stream_configs_cached needs >= 1 config")
    for config in configs:
        config.validate()

    # Partition: stream hits now, queue misses (and sampled hits, whose
    # cached value must not escape before verification confirms it).
    to_run: List[Tuple[int, Optional[ExperimentResult]]] = []
    for i, config in enumerate(configs):
        cached = cache.get(config) if cache is not None else None
        if cached is None:
            to_run.append((i, None))
        elif cache.should_verify():
            to_run.append((i, cached))
        else:
            yield i, cached
    if not to_run:
        return

    queued = [configs[i] for i, _ in to_run]
    # Misses are stored by the worker that computed them (see
    # _run_chunk_cached); verification re-runs are not — their fresh
    # result must pass record_verification before it may replace the
    # stored entry.  Worker handles never verify on their own.
    put_mask = [
        cache is not None and expected is None for _, expected in to_run
    ]
    for j, result, stored_by_worker in _stream_cached_exec(
        queued, put_mask, cache, max_workers, reuse_pool,
    ):
        i, expected = to_run[j]
        if cache is None or stored_by_worker:
            pass
        elif expected is None or not cache.record_verification(expected, result):
            # a miss, or the stale entry replaced; retried like a worker's
            with_retries(lambda: cache.put(configs[i], result))
        yield i, result


def run_configs_cached(
    configs: Sequence[ExperimentConfig],
    cache: Optional[ExperimentCache],
    max_workers: Optional[int] = None,
    reuse_pool: bool = False,
) -> List[ExperimentResult]:
    """Ordered-list front door over :func:`stream_configs_cached`:
    results come back in the order of ``configs``."""
    results: List[Optional[ExperimentResult]] = [None] * len(configs)
    for i, result in stream_configs_cached(
        configs, cache, max_workers=max_workers, reuse_pool=reuse_pool,
    ):
        results[i] = result
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
