"""Centralized coordinator-server algorithm (baseline).

The textbook baseline and the scheme several related-work systems use at
the lower level (Madhuram & Kumar, DSM protocols [1, 2]): one designated
peer — the *server*, by convention the initial holder — grants the CS.
Clients send ``request`` / ``release`` to the server; the server queues
and answers with ``grant``.  3 messages per CS, but the server is a
bottleneck and every exchange pays the client-server latency, which is
why the paper's decentralised token algorithms are preferred on a grid.

The server peer participates like any other (its own requests just skip
the network), so the class satisfies the common interface, composition
included.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from ..errors import ProtocolError
from .base import MutexPeer, PeerState

__all__ = ["CentralizedPeer"]


class CentralizedPeer(MutexPeer):
    """One peer of the centralized server algorithm.

    Message kinds: ``request``, ``release`` (client -> server) and
    ``grant`` (server -> client).
    """

    algorithm_name = "centralized"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.server = self.initial_holder
        # Server-side state (meaningful only on the server peer).
        self._busy_with: Optional[int] = None
        self._wait_q: Deque[int] = deque()

    # ------------------------------------------------------------------ #
    @property
    def is_server(self) -> bool:
        return self.node == self.server

    @property
    def holds_token(self) -> bool:
        # The server's grant is the token: the server keeps it until it
        # grants a client, who holds it while in the CS.
        if self.is_server:
            return self._busy_with is None or self._busy_with == self.node
        return self.state is PeerState.CS

    @property
    def has_pending_request(self) -> bool:
        if self.is_server:
            return bool(self._wait_q)
        # A client only knows about others through its own grant; the
        # composition consults the flag on the CS holder, so the server
        # relays the information when it notifies.
        return self._client_pending

    def _fingerprint_state(self) -> tuple:
        return (
            int(self.server),
            None if self._busy_with is None else int(self._busy_with),
            tuple(int(w) for w in self._wait_q),
            self._client_pending,
        )

    # ------------------------------------------------------------------ #
    # Set on a client when the server reports a waiter behind its CS.
    _client_pending = False

    def _do_request(self) -> None:
        if self.is_server:
            self._server_handle_request(self.node)
        else:
            self._client_pending = False
            self._send(self.server, "request")

    def _do_release(self) -> None:
        self._client_pending = False
        if self.is_server:
            self._server_handle_release(self.node)
        else:
            self._send(self.server, "release")

    # ------------------------------------------------------------------ #
    # server logic
    # ------------------------------------------------------------------ #
    def _server_handle_request(self, origin: int) -> None:
        if self._busy_with is None:
            self._busy_with = origin
            self._grant_to(origin)
        else:
            self._wait_q.append(origin)
            if self._busy_with == self.node and self.state is PeerState.CS:
                self._notify_pending()
            elif self._busy_with != self.node:
                # Tell the current CS holder someone is waiting, so a
                # composition coordinator holding the CS can react.
                self._send(self._busy_with, "waiting")

    def _server_handle_release(self, origin: int) -> None:
        if self._busy_with != origin:
            raise ProtocolError(
                f"{self.name}: release from {origin} but CS belongs to "
                f"{self._busy_with}"
            )
        if self._wait_q:
            nxt = self._wait_q.popleft()
            self._busy_with = nxt
            self._grant_to(nxt)
        else:
            self._busy_with = None

    def _grant_to(self, origin: int) -> None:
        if origin == self.node:
            if self.state is not PeerState.REQ:
                raise ProtocolError(f"{self.name}: self-grant while not requesting")
            self._grant()
        else:
            # The grant carries whether waiters are already queued, so a
            # composition coordinator entering IN learns about demand that
            # predates its own grant (has_pending_request must be true).
            self._send(origin, "grant", {"pending": bool(self._wait_q)})

    # ------------------------------------------------------------------ #
    # message handlers
    # ------------------------------------------------------------------ #
    def _on_request(self, src: int, payload: Any) -> None:
        if not self.is_server:
            raise ProtocolError(f"{self.name}: client got a request")
        self._server_handle_request(src)

    def _on_release(self, src: int, payload: Any) -> None:
        if not self.is_server:
            raise ProtocolError(f"{self.name}: client got a release")
        self._server_handle_release(src)

    def _on_grant(self, src: int, payload: Any) -> None:
        if self.state is not PeerState.REQ:
            raise ProtocolError(
                f"{self.name}: grant arrived in state {self.state.value}"
            )
        self._client_pending = bool(payload.get("pending"))
        self._grant()

    def _on_waiting(self, src: int, payload: Any) -> None:
        # Server-side notification: someone queued behind our CS.  May
        # race with our own release (then it is stale — ignore).
        if self.state is PeerState.CS:
            self._client_pending = True
            self._notify_pending()
