"""The filesystem-backed work queue: jobs, chunks, leases, done markers.

One *job* is one sweep: an ordered list of :class:`ExperimentConfig`
split into contiguous index *chunks*.  The queue is just files on a
directory tree every worker can reach::

    <farm_dir>/
      DRAIN                      # present => workers finish and exit
      jobs/<job_id>/
        job.json                 # manifest: chunks, timeouts, cache spec
        configs.pkl              # the pickled config list
        leases/<chunk>.lease     # claim marker; mtime is the heartbeat
        done/<chunk>.json        # completion marker + per-chunk stats

Lease protocol
--------------
* **claim** — atomically create ``leases/<chunk>.lease`` with
  ``O_CREAT | O_EXCL``; exactly one creator wins.  A lease whose mtime
  is older than the job's ``lease_timeout_s`` is *stale*: a claimer
  takes it over by atomically renaming it aside (``os.replace`` — again
  exactly one winner) and then re-creating it exclusively.  A claimer
  that wins a lease drops it again if the chunk's done marker appeared
  since its scan.
* **heartbeat** — the owner refreshes the lease mtime while it works;
  the refresh first re-reads the owner field, so a worker whose lease
  was stolen (it hung past the timeout) can never extend the thief's
  lease.
* **complete** — write ``done/<chunk>.json`` (atomic tmp + replace),
  then unlink the lease *iff still owned*.  Completion markers are
  keyed by chunk, so a chunk re-executed after a crash still completes
  exactly once — the marker is replaced, never duplicated, and the
  underlying results are idempotent puts into the content-addressed
  store.

Every wall-clock read below is lease bookkeeping on the host
filesystem, entirely outside the simulation (leases never influence
simulated behaviour — results are pinned byte-identical to serial
execution by ``tests/farm/``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..cache.store import CacheSpec, CacheStats, write_atomic
from ..errors import FarmError

__all__ = [
    "DRAIN_MARKER",
    "JobState",
    "JobStore",
    "default_chunks",
    "job_id_for",
]

#: Name of the farm-level drain marker file.
DRAIN_MARKER = "DRAIN"

#: Bumped whenever the manifest changes shape (2: ``cache`` is a
#: :class:`CacheSpec` as a dict, where 1 had a ``kind`` per tier).
_MANIFEST_VERSION = 2


def job_id_for(configs: Sequence[Any], fingerprint: str) -> str:
    """Content-addressed job id: same sweep + same code => same job.

    Hashes the *canonical cache keys* (not the pickle bytes), so the id
    is exactly as stable as the cache addressing itself, and a
    re-submitted warm sweep lands on the already-complete job.
    """
    h = hashlib.sha256()
    h.update(fingerprint.encode("ascii"))
    for config in configs:
        h.update(b"\0")
        h.update(config.cache_key().encode("utf-8"))
    return h.hexdigest()[:16]


def default_chunks(n_configs: int, chunk_size: int) -> List[List[int]]:
    """Contiguous index chunks of at most ``chunk_size`` configs."""
    if chunk_size < 1:
        raise FarmError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        list(range(start, min(start + chunk_size, n_configs)))
        for start in range(0, n_configs, chunk_size)
    ]


@dataclass(frozen=True)
class _LeaseInfo:
    chunk_id: int
    worker: Optional[str]
    age_s: float


class JobState:
    """Handle on one job directory; every method is safe to call from
    any process on any host sharing the farm directory."""

    def __init__(self, job_dir: Path) -> None:
        self.job_dir = Path(job_dir)
        self.job_id = self.job_dir.name
        self._manifest: Optional[Dict[str, Any]] = None
        self._configs: Optional[List[Any]] = None

    # -- layout -------------------------------------------------------- #
    @property
    def manifest_path(self) -> Path:
        return self.job_dir / "job.json"

    @property
    def configs_path(self) -> Path:
        return self.job_dir / "configs.pkl"

    @property
    def leases_dir(self) -> Path:
        return self.job_dir / "leases"

    @property
    def done_dir(self) -> Path:
        return self.job_dir / "done"

    def _lease_path(self, chunk_id: int) -> Path:
        return self.leases_dir / f"{chunk_id}.lease"

    def _done_path(self, chunk_id: int) -> Path:
        return self.done_dir / f"{chunk_id}.json"

    # -- manifest ------------------------------------------------------ #
    @property
    def manifest(self) -> Dict[str, Any]:
        if self._manifest is None:
            try:
                manifest = json.loads(
                    self.manifest_path.read_text(encoding="utf-8")
                )
            except (OSError, ValueError) as exc:
                raise FarmError(
                    f"job {self.job_id}: unreadable manifest "
                    f"({self.manifest_path}): {exc}"
                ) from exc
            version = (
                manifest.get("version") if isinstance(manifest, dict) else None
            )
            if version != _MANIFEST_VERSION:
                raise FarmError(
                    f"job {self.job_id}: manifest {self.manifest_path} is "
                    f"version {version!r}, this farm reads version "
                    f"{_MANIFEST_VERSION}; delete the job directory and "
                    "resubmit the sweep"
                )
            self._manifest = manifest
        return self._manifest

    @property
    def chunks(self) -> List[List[int]]:
        return [list(c) for c in self.manifest["chunks"]]

    @property
    def n_configs(self) -> int:
        return int(self.manifest["n_configs"])

    @property
    def lease_timeout_s(self) -> float:
        return float(self.manifest["lease_timeout_s"])

    @property
    def chunk_timeout_s(self) -> float:
        return float(self.manifest["chunk_timeout_s"])

    def cache_spec(self) -> CacheSpec:
        """The cache every worker of this job must use."""
        return CacheSpec(**self.manifest["cache"])

    def load_configs(self) -> List[Any]:
        if self._configs is None:
            try:
                with open(self.configs_path, "rb") as fh:
                    self._configs = pickle.load(fh)
            except (OSError, EOFError, pickle.UnpicklingError) as exc:
                raise FarmError(
                    f"job {self.job_id}: unreadable config list: {exc}"
                ) from exc
        return self._configs

    def exists(self) -> bool:
        return self.manifest_path.is_file()

    # -- claims -------------------------------------------------------- #
    def claim(self, worker_id: str) -> Optional[int]:
        """Claim the lowest-numbered available chunk, or ``None``.

        Available means: no done marker and no live lease.  A stale
        lease (no heartbeat for ``lease_timeout_s``) is taken over.
        """
        for chunk_id in range(len(self.chunks)):
            if self._done_path(chunk_id).exists():
                continue
            if self._try_claim(chunk_id, worker_id):
                return chunk_id
        return None

    def _try_claim(self, chunk_id: int, worker_id: str) -> bool:
        lease = self._lease_path(chunk_id)
        payload = json.dumps(
            {"worker": worker_id, "chunk": chunk_id}
        ).encode("utf-8")
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(lease, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                mtime = lease.stat().st_mtime
            except OSError:
                return False  # released/completed under us; next scan
            age = time.time() - mtime  # repro: allow[RPR001] host-side lease staleness, outside any simulation
            if age <= self.lease_timeout_s:
                return False
            # Takeover: os.replace of the stale lease has exactly one
            # winner; the loser sees FileNotFoundError and moves on.
            aside = self.leases_dir / f".steal-{chunk_id}-{worker_id}"
            try:
                os.replace(lease, aside)
            except OSError:
                return False
            try:
                os.unlink(aside)
            except OSError:
                pass
            try:
                fd = os.open(lease, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False  # a third worker slipped in; its claim wins
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        if self._done_path(chunk_id).exists():
            # Completed (marker written, then lease dropped) since
            # claim() looked: rerunning it would overwrite the marker.
            self.release(chunk_id, worker_id)
            return False
        return True

    def _lease_owner(self, chunk_id: int) -> Optional[str]:
        try:
            data = json.loads(
                self._lease_path(chunk_id).read_text(encoding="utf-8")
            )
            return str(data["worker"])
        except (OSError, ValueError, KeyError):
            # Missing, or mid-write by a racing claimant: not ours.
            return None

    def heartbeat(self, chunk_id: int, worker_id: str) -> bool:
        """Refresh the lease mtime; ``False`` means the lease was lost
        (stolen after a stall, or released) and the worker should stop
        renewing — finishing the chunk anyway is harmless (idempotent
        puts) but the thief now owns completion."""
        if self._lease_owner(chunk_id) != worker_id:
            return False
        try:
            os.utime(self._lease_path(chunk_id))
            return True
        except OSError:
            return False

    def release(self, chunk_id: int, worker_id: str) -> None:
        """Drop a claim without completing (abandon / drain / timeout)."""
        if self._lease_owner(chunk_id) == worker_id:
            try:
                os.unlink(self._lease_path(chunk_id))
            except OSError:
                pass

    def complete(
        self, chunk_id: int, worker_id: str, stats: CacheStats
    ) -> None:
        """Publish the chunk's completion marker, then release the lease.

        The marker is written before the lease is dropped, so there is
        no window where a chunk is neither leased nor done.
        """
        marker = {
            "worker": worker_id,
            "chunk": chunk_id,
            "indices": self.chunks[chunk_id],
            "stats": stats.as_dict(),
        }
        write_atomic(
            self._done_path(chunk_id),
            json.dumps(marker, sort_keys=True).encode("utf-8"),
        )
        self.release(chunk_id, worker_id)

    # -- progress ------------------------------------------------------ #
    def done_markers(self) -> Dict[int, Dict[str, Any]]:
        markers: Dict[int, Dict[str, Any]] = {}
        if not self.done_dir.is_dir():
            return markers
        for path in sorted(self.done_dir.glob("*.json")):
            try:
                markers[int(path.stem)] = json.loads(
                    path.read_text(encoding="utf-8")
                )
            except (OSError, ValueError):
                continue  # mid-replace; the next poll sees it
        return markers

    def merged_stats(self) -> CacheStats:
        """Per-chunk worker stats merged across every done marker —
        the farm-level totals the distributor and server report."""
        total = CacheStats()
        for marker in self.done_markers().values():
            total.merge(CacheStats.from_dict(marker.get("stats", {})))
        return total

    def reopen_chunks(self, chunk_ids: Iterable[int]) -> int:
        """Remove completion markers so the chunks can be re-claimed
        (used when cached results were evicted between completion and
        fetch).  Returns how many markers were removed."""
        removed = 0
        for chunk_id in chunk_ids:
            try:
                os.unlink(self._done_path(chunk_id))
                removed += 1
            except OSError:
                pass
        return removed

    def is_complete(self) -> bool:
        return all(
            self._done_path(cid).exists()
            for cid in range(len(self.chunks))
        )

    def leases(self) -> List[_LeaseInfo]:
        """Live leases (diagnostics and leak assertions in tests)."""
        out: List[_LeaseInfo] = []
        if not self.leases_dir.is_dir():
            return out
        for path in sorted(self.leases_dir.glob("*.lease")):
            try:
                age = time.time() - path.stat().st_mtime  # repro: allow[RPR001] host-side lease age, outside any simulation
            except OSError:
                continue
            out.append(
                _LeaseInfo(
                    chunk_id=int(path.stem),
                    worker=self._lease_owner(int(path.stem)),
                    age_s=age,
                )
            )
        return out

    def status(self) -> Dict[str, Any]:
        markers = self.done_markers()
        done_configs = sum(len(m.get("indices", ())) for m in markers.values())
        return {
            "job_id": self.job_id,
            "chunks_total": len(self.chunks),
            "chunks_done": len(markers),
            "configs_total": self.n_configs,
            "configs_done": done_configs,
            "leases": len(self.leases()),
            "complete": len(markers) == len(self.chunks),
            "stats": self.merged_stats().as_dict(),
        }


class JobStore:
    """The farm directory: job creation, lookup, and the drain marker."""

    def __init__(self, farm_dir: "str | os.PathLike[str]") -> None:
        self.root = Path(farm_dir)

    @property
    def jobs_dir(self) -> Path:
        return self.root / "jobs"

    def job(self, job_id: str) -> JobState:
        return JobState(self.jobs_dir / job_id)

    def list_jobs(self) -> List[JobState]:
        if not self.jobs_dir.is_dir():
            return []
        return [
            JobState(path)
            for path in sorted(self.jobs_dir.iterdir())
            if (path / "job.json").is_file()
        ]

    def create_job(
        self,
        configs: Sequence[Any],
        cache_spec: CacheSpec,
        chunk_size: int,
        lease_timeout_s: float,
        chunk_timeout_s: float,
    ) -> JobState:
        """Create (or find) the job for ``configs``.

        Content-addressed and idempotent: racing submitters of the same
        sweep converge on one job directory, and the manifest is
        published exclusively so a second submission with different
        chunking can never rewrite a job mid-run.
        """
        if not configs:
            raise FarmError("a farm job needs >= 1 config")
        job = self.job(job_id_for(configs, cache_spec.fingerprint or ""))
        if job.exists():
            return job
        write_atomic(
            job.configs_path,
            pickle.dumps(list(configs), protocol=pickle.HIGHEST_PROTOCOL),
            exclusive=True,
        )
        manifest = {
            "version": _MANIFEST_VERSION,
            "job_id": job.job_id,
            "n_configs": len(configs),
            "chunks": default_chunks(len(configs), chunk_size),
            "lease_timeout_s": lease_timeout_s,
            "chunk_timeout_s": chunk_timeout_s,
            "cache": asdict(cache_spec),
        }
        write_atomic(
            job.manifest_path,
            json.dumps(manifest, sort_keys=True).encode("utf-8"),
            exclusive=True,
        )
        return job

    # -- drain --------------------------------------------------------- #
    @property
    def drain_path(self) -> Path:
        return self.root / DRAIN_MARKER

    def request_drain(self) -> None:
        """Ask every worker to finish its current chunk and exit."""
        self.root.mkdir(parents=True, exist_ok=True)
        self.drain_path.touch()

    def clear_drain(self) -> None:
        try:
            os.unlink(self.drain_path)
        except OSError:
            pass

    def draining(self) -> bool:
        return self.drain_path.exists()
