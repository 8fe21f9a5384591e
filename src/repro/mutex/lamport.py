"""Lamport's queue-based permission algorithm (baseline; paper ref [7]).

The oldest distributed mutual exclusion algorithm: every peer maintains a
replicated request queue ordered by Lamport timestamps.  A requester
broadcasts ``request``; every receiver acknowledges with ``ack``; a
release is broadcast as ``release``.  A peer enters the CS when its own
request heads its local queue *and* it has received a message (ack or
later request) timestamped after its request from every other peer —
``3(N-1)`` messages per CS.

Provided as a second permission-based baseline for the benchmarks; like
Ricart-Agrawala it also satisfies the composition interface.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

from .base import MutexPeer, PeerState

__all__ = ["LamportPeer"]


class LamportPeer(MutexPeer):
    """One peer of Lamport's mutual exclusion algorithm.

    Message kinds: ``request``, ``ack``, ``release`` (all timestamped).
    """

    algorithm_name = "lamport"
    topology = "complete-graph"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.clock = 0
        # Replicated queue of (timestamp, origin) requests.
        self._queue: List[Tuple[int, int]] = []
        # Highest timestamp seen from each other peer.
        self._seen: Dict[int, int] = {p: 0 for p in self.peers if p != self.node}

    # ------------------------------------------------------------------ #
    @property
    def holds_token(self) -> bool:
        return self.state is PeerState.CS

    @property
    def has_pending_request(self) -> bool:
        return any(origin != self.node for _, origin in self._queue)

    # ------------------------------------------------------------------ #
    def _tick(self, received_ts: int = 0) -> int:
        self.clock = max(self.clock, received_ts) + 1
        return self.clock

    def _do_request(self) -> None:
        ts = self._tick()
        heapq.heappush(self._queue, (ts, self.node))
        if not self._seen:
            self._grant()
            return
        self._broadcast("request", {"ts": ts, "origin": self.node})

    def _do_release(self) -> None:
        self._drop_own_request()
        ts = self._tick()
        self._broadcast("release", {"ts": ts, "origin": self.node})

    # ------------------------------------------------------------------ #
    def _on_request(self, src: int, payload: Any) -> None:
        ts, origin = payload["ts"], payload["origin"]
        self._tick(ts)
        self._seen[origin] = max(self._seen[origin], ts)
        heapq.heappush(self._queue, (ts, origin))
        if self.state is PeerState.CS:
            self._notify_pending()
        self._send(origin, "ack", {"ts": self._tick()})
        self._try_enter()

    def _on_ack(self, src: int, payload: Any) -> None:
        ts = payload["ts"]
        self._tick(ts)
        self._seen[src] = max(self._seen[src], ts)
        self._try_enter()

    def _on_release(self, src: int, payload: Any) -> None:
        ts, origin = payload["ts"], payload["origin"]
        self._tick(ts)
        self._seen[origin] = max(self._seen[origin], ts)
        self._queue = [(t, o) for (t, o) in self._queue if o != origin]
        heapq.heapify(self._queue)
        self._try_enter()

    # ------------------------------------------------------------------ #
    def _try_enter(self) -> None:
        if self.state is not PeerState.REQ:
            return
        own = self._own_request()
        if own is None or not self._queue:
            return
        if self._queue[0] != own:
            return
        # Order-insensitive reduction (`all` over pure comparisons) of a
        # dict keyed and populated from the ordered `peers` tuple — the
        # iteration order can never reach the wire.
        # repro: allow[RPR003] order-insensitive all() over insertion-ordered dict
        if all(seen > own[0] for seen in self._seen.values()):
            self._grant()

    def _own_request(self) -> Optional[Tuple[int, int]]:
        for entry in self._queue:
            if entry[1] == self.node:
                return entry
        return None

    def _drop_own_request(self) -> None:
        self._queue = [(t, o) for (t, o) in self._queue if o != self.node]
        heapq.heapify(self._queue)
