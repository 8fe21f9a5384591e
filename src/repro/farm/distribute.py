"""The farm-side sweep distributor: one call, many workers, one store.

:func:`run_configs_farm` is the multi-process counterpart of
:func:`repro.experiments.run_configs_cached`: it creates a lease-file
job over the config batch, runs a :class:`Fleet` against it (real
subprocesses by default, in-process threads where spawning is
impossible), and collects the results from the shared
content-addressed store in config order.  Results are byte-identical
to the serial path — workers and collector alike go through the same
sweep scheduler, and the store round-trip is the same pickle layer the
single-host cache uses.

Fault tolerance is structural rather than bolted on: a SIGKILLed or
hung worker's chunk goes stale and is re-claimed by a peer
(:mod:`repro.farm.leases`), the fleet respawns dead workers while
chunks remain, and any result evicted between completion and
collection is recomputed locally.  The server's resident fleet is the
same :class:`Fleet`, unpinned.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence

from ..cache.store import CacheSpec, CacheStats, ExperimentCache, resolve_cache
from ..errors import FarmError
from ..experiments.config import ExperimentConfig
from ..experiments.parallel import run_configs_cached
from ..experiments.runner import ExperimentResult
from .leases import JobStore
from .worker import work_loop, worker_id_for_process

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "FarmReport",
    "Fleet",
    "run_configs_farm",
]

#: Default configs per chunk.  Small chunks spread better over a fleet
#: and bound the work lost to a crash; the store amortises the rest.
DEFAULT_CHUNK_SIZE = 2

#: Cap on a pinned fleet's respawns, so a config that crashes its
#: worker deterministically cannot respawn forever.
_MAX_RESPAWNS = 8

#: Seconds a closing fleet waits for each member before killing it.
_STOP_S = 5.0


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


class Fleet:
    """``size`` workers kept on one farm directory, started at once.

    Members are ``python -m repro.farm work`` subprocesses; with
    ``spawn=False``, or where spawning raises ``OSError``, the whole
    fleet is :func:`work_loop` threads (:attr:`inline`).  ``job_id``
    pins every member to one job, which it leaves once the job is
    complete; ``None`` gives resident stealers that run until the farm
    drains.  :meth:`heal` replaces dead members, never while the farm
    drains: a pinned fleet at most ``_MAX_RESPAWNS`` times, a resident
    one without a cap.  Closing terminates, waits for and kills the
    subprocesses left, or joins the threads; a fleet of size 0 does
    nothing.
    """

    def __init__(
        self,
        farm_dir: "str | os.PathLike[str]",
        size: int,
        job_id: Optional[str] = None,
        poll_s: float = 0.2,
        spawn: bool = True,
    ) -> None:
        self.farm_dir = Path(farm_dir)
        self.store = JobStore(self.farm_dir)
        self.job_id = job_id
        self.poll_s = poll_s
        self.inline = not spawn
        self.started = 0
        self.respawns = 0
        self._members: list = []
        self._lock = threading.Lock()
        if size and job_id is not None and self.store.draining():
            raise FarmError(self._drained())
        try:
            self._fill(size)
        except OSError:  # no subprocesses here: threads, all of them
            self.close()
            self.inline = True
            self._fill(size)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _drained(self) -> str:
        return (
            f"job {self.job_id}: the farm is draining; delete "
            f"{self.store.drain_path} to run work on it"
        )

    def _fill(self, size: int) -> None:
        for i in range(size):
            self._members.append(self._start(f"f{i}"))

    def _start(self, tag: str):
        self.started += 1
        if self.inline:
            member = threading.Thread(target=work_loop, daemon=True, args=(
                self.farm_dir, worker_id_for_process(tag),
                self.job_id, self.poll_s,
            ))
            member.start()
            return member
        # The source root leads the child's PYTHONPATH, so a source
        # checkout works without installation.
        path = os.environ.get("PYTHONPATH")
        src_root = str(Path(__file__).resolve().parents[2])
        cmd = [
            sys.executable, "-m", "repro.farm", "work",
            "--farm-dir", str(self.farm_dir),
            "--poll", str(self.poll_s),
            "--tag", tag,
        ]
        if self.job_id is not None:
            cmd += ["--job", self.job_id]
        return subprocess.Popen(cmd, env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src_root, path))),
        })

    def _alive(self, member) -> bool:
        return member.is_alive() if self.inline else member.poll() is None

    def pids(self) -> List[int]:
        """Live members' process ids (none for a thread fleet)."""
        with self._lock:
            if self.inline:
                return []
            return [p.pid for p in self._members if p.poll() is None]

    def heal(self) -> None:
        """Replace dead members.  A pinned fleet with no live member
        that may not respawn raises :class:`FarmError`."""
        with self._lock:
            alive = [m for m in self._members if self._alive(m)]
            dead = len(self._members) - len(alive)
            if not dead:
                return
            pinned = self.job_id is not None
            if self.store.draining():  # the dead wait for the drain to lift
                if pinned and not alive:
                    raise FarmError(self._drained())
                return
            self._members = alive
            if pinned:
                dead = min(dead, _MAX_RESPAWNS - self.respawns)
                if not dead and not alive:
                    raise FarmError(
                        f"job {self.job_id}: every worker died and the "
                        f"respawn cap ({_MAX_RESPAWNS}) is exhausted"
                    )
            for _ in range(dead):
                self.respawns += 1
                alive.append(self._start(f"r{self.respawns}"))

    def close(self) -> None:
        with self._lock:
            members, self._members = self._members, []
        if self.inline:
            for thread in members:
                thread.join(timeout=_STOP_S)
            return
        for proc in members:
            if proc.poll() is None:
                proc.terminate()
        for proc in members:
            try:
                proc.wait(timeout=_STOP_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=_STOP_S)


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
    spawn: bool = True,
) -> FarmReport:
    """Distribute ``configs`` over a worker fleet; results in config order.

    ``cache=None`` opens a store under the farm directory (the farm
    *requires* a store — it is the result channel).  ``spawn=False``
    runs the fleet on in-process threads (see :class:`Fleet`).
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
            deadline = time.monotonic() + deadline_s  # repro: allow[RPR001] host-side farm deadline, outside any simulation
            with Fleet(
                farm_path, max(1, num_workers), job.job_id, poll_s, spawn
            ) as fleet:
                while not job.is_complete():
                    if time.monotonic() > deadline:  # repro: allow[RPR001] host-side farm deadline, outside any simulation
                        raise FarmError(
                            f"job {job.job_id}: farm deadline "
                            f"({deadline_s:.0f}s) elapsed with "
                            f"{len(job.done_markers())}/{len(job.chunks)} "
                            "chunks done"
                        )
                    fleet.heal()
                    time.sleep(poll_s)
            report.inline = fleet.inline
            report.workers_spawned = fleet.started
            report.respawns = fleet.respawns

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
