"""Negative-control mutants for the small-scope model checker.

Each class plants exactly one protocol bug into a real algorithm; the
explorer (``repro.analysis.explore``) must find a counterexample for
every one of them (``tests/analysis/test_explore.py``).  They double as
evidence that the checker's properties have teeth — a checker that
passes these is checking nothing.

The mutants are used through :attr:`ExploreScope.peer_factory`, which
forces a flat, interpreted, crash-free cell and disables the static
send-envelope oracle (the bug is invisible to static analysis — that is
the point: the *dynamic* checker has to catch it).
"""

from repro.mutex.base import PeerState
from repro.mutex.centralized import CentralizedPeer
from repro.mutex.naimi_trehel import NaimiTrehelPeer
from repro.mutex.suzuki_kasami import SuzukiKasamiPeer

__all__ = [
    "BrokenCentralizedPeer",
    "BrokenNaimiPeer",
    "BrokenSuzukiPeer",
    "SpinningNaimiPeer",
]


class BrokenNaimiPeer(NaimiTrehelPeer):
    """Naimi-Trehel root that silently drops a request it should queue.

    The interpreted ``_on_request`` records ``origin`` as ``next`` when
    the root is busy; this mutant forgets, so the requester waits for a
    token that will never be forwarded — a deadlock once the rest of the
    system quiesces.
    """

    def _on_request(self, src, payload) -> None:
        origin = payload["origin"]
        if self.is_root:
            if self._holds_token and self.state is PeerState.NO_REQ:
                self._holds_token = False
                self._send(origin, "token")
            # BUG: busy root drops the request instead of queueing it
        else:
            self._send(self.last, "request", {"origin": origin})
        self.last = origin


class SpinningNaimiPeer(NaimiTrehelPeer):
    """Naimi-Trehel idle holder that bounces a request back to itself.

    The interpreted ``_on_request`` hands an idle root's token to the
    requester; this mutant re-sends the request to its own node instead,
    so the request circles forever and the requester waits for a token
    that never leaves.  Something is always in flight, so no state is
    quiescent: only the eventual-entry check (a bottom cycle in which a
    node keeps requesting) can catch it.
    """

    def _on_request(self, src, payload) -> None:
        if self.is_root and self._holds_token and self.state is PeerState.NO_REQ:
            # BUG: serves nobody, asks itself again
            self._send(self.node, "request", payload)
            return
        super()._on_request(src, payload)


class BrokenSuzukiPeer(SuzukiKasamiPeer):
    """Suzuki-Kasami holder that ships the token without letting go.

    The interpreted ``_send_token`` clears ``_holds_token`` (and the
    LN/queue ownership) before the send; this mutant keeps everything,
    so the old holder still believes it may enter the CS locally while
    the new holder does the same — a mutual-exclusion violation.
    """

    def _send_token(self, dst: int) -> None:
        assert self.ln is not None and self.queue is not None
        # BUG: sends a copy of the token but keeps holding it
        self._send(
            dst,
            "token",
            {"ln": dict(self.ln), "queue": list(self.queue)},
        )


class BrokenCentralizedPeer(CentralizedPeer):
    """Central coordinator that grants without honouring the queue.

    The interpreted coordinator queues a request that arrives while the
    CS is busy and only grants on release, after dequeuing the waiter;
    this mutant grants straight away without touching the queue, so two
    clients hold overlapping grants — a mutual-exclusion violation.
    """

    def _server_handle_request(self, origin: int) -> None:
        if self._busy_with is None:
            self._busy_with = origin
            self._grant_to(origin)
        else:
            # BUG: grants while busy instead of enqueueing the request
            self._grant_to(origin)
