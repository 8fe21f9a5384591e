"""HTTP cache tier: the shared store for hosts without the shared fs.

:class:`HttpCache` speaks the same ``get``/``put``/``stats`` surface as
:class:`repro.cache.ExperimentCache`, but moves the pickled blobs over
the farm server's ``/v1/cache/<fingerprint>/<key>`` endpoints instead
of a shared directory.  The sweep scheduler and the farm workers only
duck-type that surface, so an ``HttpCache`` drops in anywhere an
``ExperimentCache`` does.

Trust model: the *client* re-checks the stored canonical key after
unpickling, exactly like the on-disk store — a confused or malicious
proxy can cost a recomputation, never a wrong result being attributed
to a config.  (The transport itself is plain HTTP carrying pickles:
run it on a trusted lab network only, as ``docs/farm.md`` spells out.)

Robustness: every request retries with exponential backoff on
transport errors; a GET that still fails degrades to a *miss* and a
PUT that still fails is dropped with a counter bump — a flaky proxy
slows a sweep down, it never fails one.
"""

from __future__ import annotations

import pickle
import urllib.error
import urllib.request
from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

from ..cache.keys import code_fingerprint, config_key, key_digest
from ..cache.retry import with_retries
from ..cache.store import CacheStats, canonical_dumps

__all__ = ["HttpCache", "HttpCacheSpec"]

#: Transport failures worth retrying (urllib raises URLError for
#: connection problems; OSError covers socket-level resets).
_TRANSIENT = (urllib.error.URLError, OSError)


def http_round_trip(
    method: str,
    url: str,
    body: Optional[bytes] = None,
    *,
    timeout_s: float,
    attempts: int,
) -> Tuple[int, bytes]:
    """One HTTP exchange with the farm server, retried with backoff on
    transport errors: ``(status, body)`` for every status below 500.

    ``HTTPError`` subclasses ``URLError``, so status handling must
    happen *before* the retry policy sees the exception: a 4xx is an
    answer (never retried — a malformed request will not get better,
    and what a 404 means is the caller's business), a 5xx is re-raised
    as a plain ``URLError`` (retried — the server is restarting).
    """
    def once() -> Tuple[int, bytes]:
        req = urllib.request.Request(url, data=body, method=method)
        req.add_header("Content-Type", "application/octet-stream")
        try:
            with urllib.request.urlopen(req, timeout=timeout_s) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            payload = exc.read()
            status = exc.code
            exc.close()
            if status >= 500:
                raise urllib.error.URLError(
                    f"server returned {status} for {method} {url}"
                ) from exc
            return status, payload

    return with_retries(once, attempts=attempts, retry_on=_TRANSIENT)


@dataclass(frozen=True)
class HttpCacheSpec:
    """Picklable description of an HTTP cache tier (mirrors CacheSpec)."""

    url: str
    verify_every: int = 0
    fingerprint: Optional[str] = None

    def open(self) -> "HttpCache":
        return HttpCache(
            self.url,
            verify_every=self.verify_every,
            fingerprint=self.fingerprint,
        )


class HttpCache:
    """Experiment-result cache backed by a farm server's proxy endpoints."""

    def __init__(
        self,
        url: str,
        verify_every: int = 0,
        fingerprint: Optional[str] = None,
        timeout_s: float = 30.0,
        attempts: int = 4,
    ) -> None:
        if verify_every < 0:
            raise ValueError("verify_every must be >= 0")
        self.url = url.rstrip("/")
        self.verify_every = verify_every
        self.fingerprint = fingerprint or code_fingerprint()
        self.timeout_s = timeout_s
        self.attempts = attempts
        self.stats = CacheStats()
        #: PUTs dropped after exhausting retries (results stay correct —
        #: the config is simply recomputed by the next cold sweep).
        self.put_failures = 0

    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> HttpCacheSpec:
        return HttpCacheSpec(
            url=self.url,
            verify_every=self.verify_every,
            fingerprint=self.fingerprint,
        )

    def key_for(self, config: Any) -> str:
        return config_key(config)

    def _entry_url(self, key: str) -> str:
        return f"{self.url}/v1/cache/{self.fingerprint}/{key}"

    # ------------------------------------------------------------------ #
    def get(self, config: Any) -> Optional[Any]:
        text = config.cache_key()  # derived once: the address and the check
        try:
            status, blob = http_round_trip(
                "GET", self._entry_url(key_digest(text)),
                timeout_s=self.timeout_s, attempts=self.attempts,
            )
        except _TRANSIENT:
            self.stats.misses += 1  # unreachable proxy degrades to a miss
            return None
        if status != 200:  # 404: a clean miss
            self.stats.misses += 1
            return None
        try:
            payload = pickle.loads(blob)
            stored_key = payload["key"]
            result = payload["result"]
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        if stored_key != text:
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, config: Any, result: Any) -> None:
        text = config.cache_key()
        blob = canonical_dumps({"key": text, "result": result})
        try:
            status, _ = http_round_trip(
                "PUT", self._entry_url(key_digest(text)), blob,
                timeout_s=self.timeout_s, attempts=self.attempts,
            )
        except _TRANSIENT:
            status = None
        if status is None or status >= 400:  # unreachable, or refused
            self.put_failures += 1
            return
        self.stats.stores += 1

    # ------------------------------------------------------------------ #
    # verification sampling: same contract as ExperimentCache
    # ------------------------------------------------------------------ #
    def should_verify(self) -> bool:
        if self.verify_every <= 0:
            return False
        return self.stats.hits % self.verify_every == 1 % self.verify_every

    def record_verification(self, cached: Any, fresh: Any) -> bool:
        self.stats.verified += 1
        if cached == fresh:
            return True
        self.stats.verify_failures += 1
        return False

    def with_verify(self, verify_every: int) -> "HttpCache":
        """A sibling handle with a different sampling cadence."""
        return replace(self.spec, verify_every=verify_every).open()
