"""Multi-worker experiment farm over the content-addressed store.

``repro.farm`` promotes the single-host cache + incremental scheduler
(:mod:`repro.cache`, :func:`repro.experiments.run_configs_cached`) to a
multi-worker service:

* a **shared cache tier** — the existing ``.repro-cache`` layout used
  concurrently by many worker processes/hosts over a shared filesystem,
  plus an optional thin HTTP cache proxy (:class:`HttpCache`, the
  store's own transport from :mod:`repro.cache.http`, against a
  :class:`FarmServer`) for hosts without one;
* a **work-stealing sweep distributor** — a filesystem-backed
  lease-file work queue (:mod:`repro.farm.leases`) where each worker
  claims config chunks; lease expiry + heartbeats mean a crashed or
  hung worker's chunk is re-claimed by a peer, and re-execution is
  idempotent because every result lands in the content-addressed store;
* a **thin server + CLI client** (``python -m repro.farm serve`` /
  ``submit``/``status``/``fetch``) so many concurrent users request
  sweeps and hit warm results.

See ``docs/farm.md`` for the architecture, the lease protocol and the
failure-mode matrix.
"""

from __future__ import annotations

from ..cache.http import HttpCache
from .client import FarmClient
from .distribute import FarmReport, run_configs_farm
from .leases import JobState, JobStore, job_id_for
from .server import FarmServer
from .worker import work_loop

__all__ = [
    "FarmClient",
    "FarmReport",
    "FarmServer",
    "HttpCache",
    "JobState",
    "JobStore",
    "job_id_for",
    "run_configs_farm",
    "work_loop",
]
