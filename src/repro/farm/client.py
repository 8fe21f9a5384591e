"""Client for the farm server: submit / status / fetch / drain.

Every exchange is the HTTP cache tier's
:func:`~repro.cache.http.http_round_trip` (retry with backoff), so a
server restart mid-conversation costs a delay, not a failed sweep.
Many concurrent clients may submit the same sweep: job ids are
content-addressed, so they all converge on one job and one set of warm
results.
"""

from __future__ import annotations

import json
import pickle
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cache.http import http_round_trip
from ..cache.store import CacheStats
from ..errors import FarmError
from ..experiments.config import ExperimentConfig
from ..experiments.runner import ExperimentResult

__all__ = ["FarmClient"]


class FarmClient:
    """Talks to one :class:`repro.farm.server.FarmServer`."""

    def __init__(
        self, url: str, timeout_s: float = 30.0, attempts: int = 4
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s
        self.attempts = attempts

    # ------------------------------------------------------------------ #
    def _retrying(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        return http_round_trip(
            method, f"{self.url}{path}", body,
            timeout_s=self.timeout_s, attempts=self.attempts,
        )

    @staticmethod
    def _json(status: int, body: bytes, what: str) -> Dict[str, Any]:
        if status >= 400:
            raise FarmError(f"{what}: HTTP {status}: {body[:200]!r}")
        try:
            return json.loads(body.decode("utf-8"))
        except ValueError as exc:
            raise FarmError(f"{what}: unparseable response") from exc

    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, Any]:
        return self._json(*self._retrying("GET", "/healthz"), "health")

    def workers(self) -> List[int]:
        payload = self._json(*self._retrying("GET", "/v1/workers"), "workers")
        return [int(p) for p in payload["pids"]]

    def submit(self, configs: Sequence[ExperimentConfig]) -> Dict[str, Any]:
        """Submit a sweep; returns the job status (possibly already
        complete — submissions are content-addressed)."""
        body = pickle.dumps(list(configs), protocol=pickle.HIGHEST_PROTOCOL)
        return self._json(
            *self._retrying("POST", "/v1/jobs", body), "submit"
        )

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._json(
            *self._retrying("GET", f"/v1/jobs/{job_id}"), f"job {job_id}"
        )

    def drain(self) -> None:
        self._json(*self._retrying("POST", "/v1/drain"), "drain")

    # ------------------------------------------------------------------ #
    def try_fetch(
        self, job_id: str
    ) -> Optional[Tuple[List[ExperimentResult], CacheStats]]:
        """One fetch attempt; ``None`` while the job is still running."""
        status, body = self._retrying("GET", f"/v1/jobs/{job_id}/results")
        if status == 202:
            return None
        if status != 200:
            raise FarmError(
                f"fetch {job_id}: HTTP {status}: {body[:200]!r}"
            )
        payload = pickle.loads(body)
        return payload["results"], CacheStats.from_dict(payload["stats"])

    def fetch(
        self,
        job_id: str,
        poll_s: float = 0.5,
        deadline_s: float = 900.0,
    ) -> Tuple[List[ExperimentResult], CacheStats]:
        """Block until the job completes and return ``(results, merged
        worker stats)``, results in submission (config) order."""
        deadline = time.monotonic() + deadline_s  # repro: allow[RPR001] host-side fetch deadline, outside any simulation
        while True:
            got = self.try_fetch(job_id)
            if got is not None:
                return got
            if time.monotonic() > deadline:  # repro: allow[RPR001] host-side fetch deadline, outside any simulation
                raise FarmError(
                    f"fetch {job_id}: deadline ({deadline_s:.0f}s) elapsed; "
                    f"last status: {self.status(job_id)}"
                )
            time.sleep(poll_s)

    def run(
        self,
        configs: Sequence[ExperimentConfig],
        poll_s: float = 0.5,
        deadline_s: float = 900.0,
    ) -> Tuple[List[ExperimentResult], CacheStats]:
        """Submit-and-fetch convenience: the remote counterpart of
        :func:`repro.experiments.run_configs_cached`."""
        job = self.submit(configs)
        return self.fetch(
            job["job_id"], poll_s=poll_s, deadline_s=deadline_s
        )
