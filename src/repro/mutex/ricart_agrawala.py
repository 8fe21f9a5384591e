"""Ricart-Agrawala's permission-based algorithm (baseline; paper ref [15]).

The paper's taxonomy (§1) opposes *token-based* and *permission-based*
families and argues token algorithms suit grids better.  This baseline
lets the benchmarks quantify that claim: a requester broadcasts a
timestamped request and enters the CS after collecting a ``reply`` from
every other peer (``2(N-1)`` messages per CS).  A peer defers its reply
while it is in the CS, or while it has a pending request with higher
priority (smaller ``(clock, id)``).

Although permission-based, the peer exposes the same interface as the
token algorithms — ``holds_token`` is true exactly while in the CS — so
it can also be plugged into the composition (an extension over the
paper, which composes token algorithms only).
"""

from __future__ import annotations

from typing import Any, List, Optional, Set, Tuple

from ..errors import ProtocolError
from .base import MutexPeer, PeerState

__all__ = ["RicartAgrawalaPeer"]


class RicartAgrawalaPeer(MutexPeer):
    """One peer of the Ricart-Agrawala permission algorithm.

    Message kinds: ``request`` (broadcast, carries a Lamport timestamp),
    ``reply``.
    """

    algorithm_name = "ricart-agrawala"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.clock = 0
        self._request_ts: Optional[Tuple[int, int]] = None
        self._replies_missing: Set[int] = set()
        self._deferred: List[int] = []

    # ------------------------------------------------------------------ #
    @property
    def holds_token(self) -> bool:
        # Permission-based: "holding the token" == being inside the CS.
        return self.state is PeerState.CS

    @property
    def has_pending_request(self) -> bool:
        return bool(self._deferred)

    # ------------------------------------------------------------------ #
    def _do_request(self) -> None:
        self.clock += 1
        self._request_ts = (self.clock, self.node)
        self._replies_missing = {p for p in self.peers if p != self.node}
        if not self._replies_missing:
            self._enter()
            return
        self._broadcast("request", {"ts": self.clock, "origin": self.node})

    def _do_release(self) -> None:
        self._request_ts = None
        deferred, self._deferred = self._deferred, []
        for dst in deferred:
            self._send(dst, "reply")

    # ------------------------------------------------------------------ #
    def _on_request(self, src: int, payload: Any) -> None:
        ts = payload["ts"]
        origin = payload["origin"]
        self.clock = max(self.clock, ts) + 1
        if self.state is PeerState.CS:
            self._deferred.append(origin)
            self._notify_pending()
        elif (
            self.state is PeerState.REQ
            and self._request_ts is not None
            and self._request_ts < (ts, origin)
        ):
            # Our own pending request has priority: defer the reply.
            self._deferred.append(origin)
        else:
            self._send(origin, "reply")

    def _on_reply(self, src: int, payload: Any) -> None:
        if self.state is not PeerState.REQ:
            raise ProtocolError(
                f"{self.name}: reply arrived in state {self.state.value}"
            )
        self._replies_missing.discard(src)
        if not self._replies_missing:
            self._enter()

    # ------------------------------------------------------------------ #
    def _enter(self) -> None:
        self._grant()
