"""The farm worker: claim a chunk, run it, store results, repeat.

One worker process serves *every* job in the farm directory — idle
workers steal pending chunks from whichever job has them, so a fleet
started for one sweep naturally absorbs the next one submitted.

Per chunk the worker:

1. claims the lease (:meth:`JobState.claim`), starting a heartbeat
   thread that refreshes the lease mtime — but only while the chunk is
   inside its ``chunk_timeout_s`` budget.  A worker that hangs inside a
   single simulation stops heartbeating when the budget lapses, the
   lease goes stale, and a peer re-claims the chunk (duplicated compute
   is safe: results are idempotent puts into the content-addressed
   store);
2. sweeps the chunk through :func:`~repro.experiments.stream_configs_cached`
   in-process, on this worker's one store handle: hits are read, misses
   run and are put back *from this process* with retry-with-backoff on
   transient store errors;
3. publishes the completion marker carrying the per-chunk
   :class:`CacheStats`, then drops the lease.

Wall-clock reads here are all host-side lease/timeout bookkeeping —
nothing below ever feeds simulated time.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional

from ..errors import FarmError
from ..experiments.parallel import _chunk_cache, stream_configs_cached
from .leases import JobState, JobStore

__all__ = ["run_one_chunk", "work_loop", "worker_id_for_process"]

#: Environment knob (milliseconds) slowing each config down; used by the
#: fault-injection tests to hold a worker mid-chunk long enough to be
#: SIGKILLed deterministically.  Unset or 0 in real deployments.
SLOW_MS_ENV = "REPRO_FARM_SLOW_MS"


def worker_id_for_process(tag: str = "") -> str:
    """A farm-unique, path-safe worker id for this process."""
    base = f"w{os.getpid()}"
    if tag:
        safe = "".join(c for c in tag if c.isalnum() or c in "_-")
        base = f"{safe}-{base}"
    return base


class _Heartbeat(threading.Thread):
    """Refreshes the chunk lease until stopped, the budget lapses, or
    the lease is lost to a takeover."""

    def __init__(
        self, job: JobState, chunk_id: int, worker_id: str, budget_s: float
    ) -> None:
        super().__init__(daemon=True)
        self.job = job
        self.chunk_id = chunk_id
        self.worker_id = worker_id
        self.budget_s = budget_s
        self.interval_s = max(0.05, job.lease_timeout_s / 4.0)
        self.stop_event = threading.Event()

    def run(self) -> None:
        deadline = time.monotonic() + self.budget_s  # repro: allow[RPR001] host-side chunk budget, outside any simulation
        while not self.stop_event.wait(self.interval_s):
            if time.monotonic() > deadline:  # repro: allow[RPR001] host-side chunk budget, outside any simulation
                return  # stop renewing: let a peer steal the chunk
            if not self.job.heartbeat(self.chunk_id, self.worker_id):
                return

    def stop(self) -> None:
        self.stop_event.set()
        self.join(timeout=2.0)


def _slow_ms() -> float:
    raw = os.environ.get(SLOW_MS_ENV, "")
    try:
        return float(raw) if raw else 0.0
    except ValueError:
        return 0.0


def run_one_chunk(
    job: JobState, chunk_id: int, worker_id: str
) -> bool:
    """Execute one claimed chunk; returns whether it completed.

    ``False`` means the chunk budget lapsed mid-chunk: the lease is
    released (results computed so far are already in the store) and a
    peer finishes the remainder.
    """
    try:
        configs = job.load_configs()
    except FarmError:
        job.release(chunk_id, worker_id)  # a peer need not wait it out
        raise
    chunk = [configs[i] for i in job.chunks[chunk_id]]
    # this worker's handle, fresh stats: one store walk per worker
    cache = _chunk_cache(job.cache_spec())
    budget_s = job.chunk_timeout_s
    heartbeat = _Heartbeat(job, chunk_id, worker_id, budget_s)
    heartbeat.start()
    deadline = time.monotonic() + budget_s  # repro: allow[RPR001] host-side chunk budget, outside any simulation
    slow_ms = _slow_ms()
    try:
        left = len(chunk)
        for _ in stream_configs_cached(chunk, cache, max_workers=1):
            left -= 1
            if slow_ms:
                time.sleep(slow_ms / 1000.0)
            if left and time.monotonic() > deadline:  # repro: allow[RPR001] host-side chunk budget, outside any simulation
                job.release(chunk_id, worker_id)
                return False
        job.complete(chunk_id, worker_id, cache.stats)
        return True
    finally:
        heartbeat.stop()


def work_loop(
    farm_dir: "str | os.PathLike[str]",
    worker_id: Optional[str] = None,
    job_id: Optional[str] = None,
    poll_s: float = 0.2,
) -> Dict[str, Any]:
    """Run chunks until the farm drains or the pinned job is complete.

    ``job_id`` pins the worker to one job; otherwise it steals work from
    every job in the farm directory (lowest job id first).

    Returns a small summary dict (chunks completed/abandoned) for the
    CLI to print.
    """
    store = JobStore(farm_dir)
    me = worker_id or worker_id_for_process()
    completed = 0
    abandoned = 0
    while not store.draining():
        jobs: List[JobState]
        if job_id is not None:
            job = store.job(job_id)
            jobs = [job] if job.exists() else []
        else:
            jobs = store.list_jobs()
        for job in jobs:
            chunk_id = job.claim(me)
            if chunk_id is None:
                continue
            if run_one_chunk(job, chunk_id, me):
                completed += 1
            else:
                abandoned += 1
            break  # rescan: an earlier job may have opened up
        else:  # nothing claimable
            if job_id is not None and jobs and jobs[0].is_complete():
                break
            time.sleep(poll_s)
    return {"worker": me, "completed": completed, "abandoned": abandoned}
