"""Retry-with-backoff for transient store and transport errors.

Shared-filesystem caches and the farm's HTTP tier both fail
*transiently*: NFS returns ``ESTALE`` during a rename storm, a cache
proxy restarts between two requests, a directory scan races an
eviction.  Retrying a handful of times with exponential backoff turns
those blips into latency instead of lost work.

The backoff schedule is deterministic (no jitter): the repro tree bans
unseeded randomness (RPR002), and the callers here are coarse-grained
enough — one retry per *chunk*, not per message — that synchronized
retries are not a realistic thundering-herd concern.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple, Type, TypeVar

__all__ = ["DEFAULT_ATTEMPTS", "DEFAULT_BASE_DELAY_S", "with_retries"]

T = TypeVar("T")

#: Total attempts (first try included).
DEFAULT_ATTEMPTS = 4

#: First retry delay; doubles per attempt (0.05, 0.1, 0.2, ...).
DEFAULT_BASE_DELAY_S = 0.05


def with_retries(
    fn: Callable[[], T],
    attempts: int = DEFAULT_ATTEMPTS,
    retry_on: Tuple[Type[BaseException], ...] = (OSError,),
) -> T:
    """Call ``fn`` until it succeeds, up to ``attempts`` times.

    Retries only exceptions in ``retry_on`` (``OSError`` by default —
    the transient-filesystem family); anything else propagates
    immediately.  The final failure propagates unwrapped so callers see
    the real error, not a retry wrapper.
    """
    if attempts < 1:
        raise ValueError("with_retries needs attempts >= 1")
    delay = DEFAULT_BASE_DELAY_S
    for attempt in range(attempts):
        try:
            return fn()
        except retry_on:
            if attempt == attempts - 1:
                raise
            time.sleep(delay)
            delay *= 2.0
    raise AssertionError("unreachable")  # pragma: no cover
