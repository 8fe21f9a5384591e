"""Structural invariants checked directly against peer state.

Unlike the trace-based safety/liveness checkers, these helpers inspect a
set of live :class:`~repro.mutex.base.MutexPeer` objects — typically at
the end of a run, or between steps in property-based tests.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..errors import ProtocolError
from ..mutex.base import MutexPeer, PeerState
from ..mutex.registry import get_algorithm
from ..net.faults import CrashController

__all__ = [
    "token_holders",
    "live_peers",
    "assert_single_token",
    "assert_all_idle",
    "assert_consistent_ring",
]


def token_holders(peers: Iterable[MutexPeer]) -> List[MutexPeer]:
    """Peers currently holding the token.

    For permission-based algorithms ``holds_token`` is CS membership, so
    the uniqueness invariant below covers them too.
    """
    return [p for p in peers if p.holds_token]


def live_peers(
    peers: Iterable[MutexPeer], crashes: CrashController
) -> List[MutexPeer]:
    """The subset of ``peers`` whose node is currently up.

    Post-recovery invariants quantify over the *live* membership — a
    crashed peer's frozen state (e.g. the stale token it died with) is
    outside the system by definition of crash-stop."""
    return [p for p in peers if not crashes.is_down(p.node)]


def assert_single_token(peers: Sequence[MutexPeer]) -> None:
    """Token-based algorithms must have **exactly one** token in the
    system when no message is in flight (for permission-based peers the
    bound is *at most* one, since idle systems hold no permission).
    Which of the two an algorithm is, its registry entry says."""
    holders = token_holders(peers)
    if len(holders) > 1:
        raise ProtocolError(
            f"{len(holders)} token holders: "
            + ", ".join(p.name for p in holders)
        )
    info = get_algorithm(type(peers[0]).algorithm_name)
    if info.token_based and not holders:
        raise ProtocolError("the token vanished (no holder, no message in flight)")


def assert_all_idle(peers: Iterable[MutexPeer]) -> None:
    """Assert every peer is back in ``NO_REQ`` (end of a drained run)."""
    busy = [p for p in peers if p.state is not PeerState.NO_REQ]
    if busy:
        raise ProtocolError(
            "peers not idle at end of run: "
            + ", ".join(f"{p.name}={p.state.value}" for p in busy)
        )


def assert_consistent_ring(peers: Sequence[MutexPeer]) -> None:
    """For Martin peers: successor/predecessor pointers must form one
    consistent cycle over the peer set."""
    by_node = {p.node: p for p in peers}
    for p in peers:
        succ = by_node[p.successor]
        if succ.predecessor != p.node:
            raise ProtocolError(
                f"ring broken: {p.node}->succ {p.successor} but "
                f"{succ.node}->pred {succ.predecessor}"
            )
    # Walk the cycle: must visit everyone exactly once.
    seen = set()
    cur = peers[0]
    for _ in range(len(peers)):
        if cur.node in seen:
            raise ProtocolError("ring has a short cycle")
        seen.add(cur.node)
        cur = by_node[cur.successor]
    if cur.node != peers[0].node or len(seen) != len(peers):
        raise ProtocolError("ring does not close over all peers")
