"""The farm-side sweep distributor: one call, many workers, one store.

:func:`run_configs_farm` is the multi-process counterpart of
:func:`repro.experiments.run_configs_cached`: it creates a lease-file
job over the config batch, runs a worker fleet against it (real
subprocesses by default, in-process threads where spawning is
impossible), and collects the results from the shared
content-addressed store in config order.  Results are byte-identical
to the serial path — workers and collector alike go through the same
sweep scheduler, and the store round-trip is the same pickle layer the
single-host cache uses.

Fault tolerance is structural rather than bolted on: a SIGKILLed or
hung worker's chunk goes stale and is re-claimed by a peer
(:mod:`repro.farm.leases`), the distributor respawns dead workers while
chunks remain, and any result evicted between completion and
collection is recomputed locally.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence

from ..cache.store import CacheSpec, CacheStats, ExperimentCache, resolve_cache
from ..errors import FarmError
from ..experiments.config import ExperimentConfig
from ..experiments.parallel import run_configs_cached
from ..experiments.runner import ExperimentResult
from .leases import JobState, JobStore
from .worker import work_loop, worker_id_for_process

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "FarmReport",
    "run_configs_farm",
    "spawn_worker",
]

#: Default configs per chunk.  Small chunks spread better over a fleet
#: and bound the work lost to a crash; the store amortises the rest.
DEFAULT_CHUNK_SIZE = 2

#: Cap on worker respawns per farm call, so a config that crashes its
#: worker deterministically cannot respawn forever.
_MAX_RESPAWNS = 8


@dataclass
class FarmReport:
    """Outcome of one distributed sweep."""

    job_id: str
    results: List[ExperimentResult]
    #: Per-chunk worker stats merged across every completion marker —
    #: ``hits + misses`` equals the number of configs executed by
    #: completed chunks (each config is looked up exactly once per
    #: completed chunk).
    worker_stats: CacheStats
    chunks_total: int
    workers_spawned: int = 0
    respawns: int = 0
    #: Results missing from the store at collection time (evicted under
    #: cache pressure) and recomputed locally.
    recovered: int = 0
    inline: bool = False
    events: List[str] = field(default_factory=list)


def spawn_worker(
    farm_dir: "str | os.PathLike[str]",
    job_id: Optional[str] = None,
    tag: str = "",
    idle_exit_s: Optional[float] = None,
    exit_when_done: bool = True,
    poll_s: float = 0.2,
) -> "subprocess.Popen[bytes]":
    """Start one real worker subprocess against ``farm_dir``.

    The child runs ``python -m repro.farm work``; the repro package's
    source root is prepended to its ``PYTHONPATH`` so the call works
    from a source checkout without installation.
    """
    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    cmd = [
        sys.executable, "-m", "repro.farm", "work",
        "--farm-dir", str(farm_dir),
        "--poll", str(poll_s),
    ]
    if job_id is not None:
        cmd += ["--job", job_id]
    if tag:
        cmd += ["--tag", tag]
    if idle_exit_s is not None:
        cmd += ["--idle-exit", str(idle_exit_s)]
    if exit_when_done:
        cmd += ["--exit-when-done"]
    return subprocess.Popen(cmd, env=env)


def _run_inline_fleet(
    farm_dir: Path, job: JobState, num_workers: int, poll_s: float
) -> None:
    """Worker loops on threads — the no-subprocess fallback.

    Simulations are CPU-bound so threads do not parallelise them, but
    the lease/claim/complete protocol is exercised identically, which
    is what the equivalence contract needs.
    """
    threads = [
        threading.Thread(
            target=work_loop,
            kwargs=dict(
                farm_dir=farm_dir,
                worker_id=worker_id_for_process(f"t{i}"),
                job_id=job.job_id,
                poll_s=poll_s,
                exit_when_done=True,
            ),
            daemon=True,
        )
        for i in range(max(1, num_workers))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run_configs_farm(
    configs: Sequence[ExperimentConfig],
    cache: "ExperimentCache | CacheSpec | None" = None,
    num_workers: int = 2,
    farm_dir: "str | os.PathLike[str] | None" = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    lease_timeout_s: float = 5.0,
    chunk_timeout_s: float = 300.0,
    poll_s: float = 0.1,
    deadline_s: float = 900.0,
    spawn: Optional[bool] = None,
) -> FarmReport:
    """Distribute ``configs`` over a worker fleet; results in config order.

    ``cache=None`` opens a store under the farm directory (the farm
    *requires* a store — it is the result channel).  ``spawn`` picks the
    fleet flavour: ``True`` real subprocesses, ``False`` in-process
    threads, ``None`` tries subprocesses and falls back.
    """
    if not configs:
        raise FarmError("run_configs_farm needs >= 1 config")
    for config in configs:
        config.validate()

    tmp_ctx: Optional[tempfile.TemporaryDirectory] = None
    if farm_dir is None:
        tmp_ctx = tempfile.TemporaryDirectory(prefix="repro-farm-")
        farm_dir = tmp_ctx.name
    farm_path = Path(farm_dir)
    try:
        store = JobStore(farm_path)
        # Workers never verify; a spec's fingerprint is computed here,
        # once, when it opens, so every worker agrees on it.
        handle = resolve_cache(cache) or ExperimentCache(
            cache_dir=farm_path / "cache"
        )
        spec = replace(handle.spec, verify_every=0)
        job = store.create_job(
            configs,
            cache_spec=spec,
            chunk_size=chunk_size,
            lease_timeout_s=lease_timeout_s,
            chunk_timeout_s=chunk_timeout_s,
        )
        report = FarmReport(
            job_id=job.job_id,
            results=[],
            worker_stats=CacheStats(),
            chunks_total=len(job.chunks),
        )

        if not job.is_complete():
            if spawn is False:
                report.inline = True
                _run_inline_fleet(farm_path, job, num_workers, poll_s)
            else:
                try:
                    _run_spawned_fleet(
                        farm_path, job, num_workers, poll_s, deadline_s,
                        report,
                    )
                except OSError:
                    if spawn:  # explicitly requested subprocesses
                        raise
                    report.inline = True
                    report.events.append(
                        "subprocess spawn unavailable; inline fallback"
                    )
                    _run_inline_fleet(farm_path, job, num_workers, poll_s)
        if not job.is_complete():
            raise FarmError(
                f"job {job.job_id}: fleet exited with "
                f"{len(job.chunks) - len(job.done_markers())} chunk(s) "
                "outstanding"
            )

        report.worker_stats = job.merged_stats()
        # A fresh handle, so the caller's stats stay the sweep's.  A
        # result evicted between completion and collection (tiny cap or
        # a concurrent sweep) is a miss: recomputed here, exactly once.
        collector = spec.open()
        report.results = run_configs_cached(configs, collector, max_workers=1)
        report.recovered = collector.stats.misses
        return report
    finally:
        if tmp_ctx is not None:
            tmp_ctx.cleanup()


def _run_spawned_fleet(
    farm_dir: Path,
    job: JobState,
    num_workers: int,
    poll_s: float,
    deadline_s: float,
    report: FarmReport,
) -> None:
    """Keep ``num_workers`` live workers on the job until it completes.

    Dead workers (crashed, SIGKILLed, OOM-killed) are respawned while
    chunks remain, up to a respawn cap; their abandoned leases expire
    and are re-claimed by the survivors either way.
    """
    fleet: List["subprocess.Popen[bytes]"] = []
    deadline = time.monotonic() + deadline_s  # repro: allow[RPR001] host-side farm deadline, outside any simulation
    try:
        for i in range(max(1, num_workers)):
            fleet.append(
                spawn_worker(farm_dir, job_id=job.job_id, tag=f"f{i}")
            )
            report.workers_spawned += 1
        while not job.is_complete():
            if time.monotonic() > deadline:  # repro: allow[RPR001] host-side farm deadline, outside any simulation
                raise FarmError(
                    f"job {job.job_id}: farm deadline ({deadline_s:.0f}s) "
                    f"elapsed with {len(job.done_markers())}/"
                    f"{len(job.chunks)} chunks done"
                )
            alive = [p for p in fleet if p.poll() is None]
            died = len(fleet) - len(alive)
            if died and report.respawns < _MAX_RESPAWNS:
                for _ in range(min(died, _MAX_RESPAWNS - report.respawns)):
                    alive.append(
                        spawn_worker(
                            farm_dir, job_id=job.job_id,
                            tag=f"r{report.respawns}",
                        )
                    )
                    report.respawns += 1
                    report.workers_spawned += 1
                    report.events.append("respawned a dead worker")
            elif died and not alive:
                raise FarmError(
                    f"job {job.job_id}: every worker died and the respawn "
                    f"cap ({_MAX_RESPAWNS}) is exhausted"
                )
            fleet = alive
            time.sleep(poll_s)
    finally:
        for proc in fleet:
            if proc.poll() is None:
                proc.terminate()
        for proc in fleet:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
