"""HTTP cache tier: the shared store for hosts without the shared fs.

:class:`HttpCache` is an :class:`~repro.cache.store.ExperimentCache`
whose blobs move over a farm server's ``/v1/cache/<fingerprint>/<key>``
endpoints instead of living in a directory.  It overrides only the byte
hooks, so it drops in anywhere an ``ExperimentCache`` does, and
``CacheSpec(cache_dir=<server url>).open()`` reopens one.

The client re-checks the stored canonical key after unpickling, as the
on-disk store does: a confused proxy can cost a recomputation, never a
wrong result.  (The transport is plain HTTP carrying pickles: run it on
a trusted lab network only, as ``docs/farm.md`` spells out.)  Every
request retries with backoff; a GET that still fails is a miss and a
PUT that still fails is dropped and counted — a flaky proxy slows a
sweep down, it never fails one.
"""

from __future__ import annotations

import urllib.error
import urllib.request
from typing import Optional, Tuple

from .retry import with_retries
from .store import ExperimentCache

__all__ = ["HttpCache", "http_round_trip"]

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


class HttpCache(ExperimentCache):
    """Experiment-result cache backed by a farm server's proxy endpoints.

    :attr:`root` is the server's base URL; there is no local directory
    to walk or evict, the server's own store keeps the size cap.
    """

    max_bytes = 0

    def __init__(
        self,
        url: str,
        verify_every: int = 0,
        fingerprint: Optional[str] = None,
        timeout_s: float = 30.0,
        attempts: int = 4,
    ) -> None:
        self._init_shared(url.rstrip("/"), verify_every, fingerprint)
        self.timeout_s = timeout_s
        self.attempts = attempts
        #: PUTs dropped after exhausting retries (results stay correct —
        #: the config is simply recomputed by the next cold sweep).
        self.put_failures = 0

    def _exchange(
        self, method: str, key: str, body: Optional[bytes] = None
    ) -> Tuple[Optional[int], bytes]:
        """One exchange about ``key``; status ``None`` when the proxy
        stayed unreachable through every retry."""
        try:
            return http_round_trip(
                method, f"{self.root}/v1/cache/{self.fingerprint}/{key}", body,
                timeout_s=self.timeout_s, attempts=self.attempts,
            )
        except _TRANSIENT:
            return None, b""

    def _read_blob(self, key: str) -> Optional[bytes]:
        status, blob = self._exchange("GET", key)
        return blob if status == 200 else None  # a 404 or no proxy: a miss

    def _write_blob(self, key: str, blob: bytes) -> None:
        status, _ = self._exchange("PUT", key, blob)
        if status is None or status >= 400:  # unreachable, or refused
            self.put_failures += 1
        else:
            self.stats.stores += 1

    def _drop_blob(self, key: str) -> None:
        """The proxy has no delete: a bad blob stays until the put of
        its recomputed result replaces it."""
