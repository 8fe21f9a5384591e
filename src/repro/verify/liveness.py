"""Liveness verification: every CS request is eventually satisfied.

Pairs ``cs_request`` records with the following ``cs_enter`` of the same
``(node, port)``; at the end of a run :meth:`assert_all_satisfied` raises
:class:`~repro.errors.LivenessViolation` naming every starved process.
As a by-product the checker accumulates per-request waiting times, which
tests use to assert ordering/fairness properties without touching the
metrics layer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import LivenessViolation
from ..sim.trace import TraceRecord, Tracer

__all__ = ["LivenessChecker"]

Key = Tuple[int, str]


class LivenessChecker:
    """Tracks request -> grant pairing over trace records.

    Parameters mirror :class:`~repro.verify.safety.MutualExclusionChecker`.
    """

    def __init__(
        self,
        tracer: Tracer,
        include: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> None:
        self._include = include
        self.outstanding: Dict[Key, float] = {}
        #: (node, port, requested_at, granted_at) for each satisfied request
        self.satisfied: List[Tuple[int, str, float, float]] = []
        tracer.subscribe("cs_request", self._on_request)
        tracer.subscribe("cs_enter", self._on_enter)

    def _on_request(self, rec: TraceRecord) -> None:
        if self._include is not None and not self._include(rec):
            return
        key = (rec.node, rec.port)
        if key in self.outstanding:
            raise LivenessViolation(
                f"t={rec.time:.3f}ms: {key} issued a second request while "
                "one is outstanding"
            )
        self.outstanding[key] = rec.time

    def _on_enter(self, rec: TraceRecord) -> None:
        if self._include is not None and not self._include(rec):
            return
        key = (rec.node, rec.port)
        requested_at = self.outstanding.pop(key, None)
        if requested_at is None:
            # A direct grant without request would have been caught by the
            # peer state machine; an unmatched enter here means the enter
            # belongs to a request issued before this checker attached.
            return
        self.satisfied.append((key[0], key[1], requested_at, rec.time))

    # ------------------------------------------------------------------ #
    def forgive(self, node: int) -> None:
        """Discard ``node``'s outstanding requests.

        A crashed requester will never be granted; under fault injection
        the test forgives its dead nodes before asserting that every
        *surviving* request was satisfied.
        """
        for key in [k for k in self.outstanding if k[0] == node]:
            del self.outstanding[key]

    def assert_all_satisfied(self) -> None:
        """Raise :class:`LivenessViolation` if any request is still waiting."""
        if self.outstanding:
            starved = ", ".join(
                f"{n}@{p} (since t={t:.3f}ms)"
                for (n, p), t in sorted(self.outstanding.items())
            )
            raise LivenessViolation(f"unsatisfied requests: {starved}")
