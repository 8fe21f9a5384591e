"""Naimi-Tréhel's tree algorithm (paper §2.2).

Two distributed structures are maintained:

* the **last tree**: each peer's ``last`` points toward the *probable*
  owner — the peer that will hold the token last among current
  requesters.  Requests are forwarded along ``last`` pointers and every
  hop performs *path reversal*, re-pointing ``last`` at the requester, so
  the tree stays shallow (``O(log N)`` average request path).
* the **next queue**: a distributed FIFO of unsatisfied requests; each
  peer's ``next`` names the peer to hand the token to after its own CS.

Per-CS cost: ``O(log N)`` messages on average; ``T_req ≈ log(N)·T``,
``T_token = T``.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ProtocolError
from .base import MutexPeer, PeerState

__all__ = ["NaimiTrehelPeer"]


class NaimiTrehelPeer(MutexPeer):
    """One peer of the Naimi-Tréhel token algorithm.

    Message kinds: ``request`` (carries the original requester's id,
    forwarded along ``last`` pointers), ``token``.
    """

    algorithm_name = "naimi"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._init_state(self.initial_holder)

    def _init_state(self, holder: int) -> None:
        self._holds_token = self.node == holder
        # Probable owner.  The holder is the tree root (last == itself);
        # everyone else points at it.
        self.last: int = holder
        # Next peer to hand the token to after our CS (None = nobody).
        self.next: Optional[int] = None

    # ------------------------------------------------------------------ #
    @property
    def holds_token(self) -> bool:
        return self._holds_token

    @property
    def has_pending_request(self) -> bool:
        return self.next is not None

    @property
    def is_root(self) -> bool:
        """Whether this peer is the current root of the last tree."""
        return self.last == self.node

    def _fingerprint_state(self) -> tuple:
        return (self._holds_token, int(self.last),
                None if self.next is None else int(self.next))

    # ------------------------------------------------------------------ #
    # requesting
    # ------------------------------------------------------------------ #
    def _do_request(self) -> None:
        if self._holds_token:
            # We are the idle root holding the token: enter directly.
            self._grant()
            return
        self._send(self.last, "request", {"origin": self.node})
        # Path reversal: we are the new probable owner.
        self.last = self.node

    # ------------------------------------------------------------------ #
    # releasing
    # ------------------------------------------------------------------ #
    def _do_release(self) -> None:
        if self.next is not None:
            dst, self.next = self.next, None
            self._holds_token = False
            self._send(dst, "token")
        # else: keep the token idle; we stay the tree root.

    # ------------------------------------------------------------------ #
    # message handlers
    # ------------------------------------------------------------------ #
    def _on_request(self, src: int, payload: Any) -> None:
        origin = payload["origin"]
        if self.is_root:
            if self._holds_token and self.state is PeerState.NO_REQ:
                # Idle holder: grant straight away.
                self._holds_token = False
                self._send(origin, "token")
            else:
                # Either we are in the CS holding the token, or we are
                # ourselves waiting for it: origin comes right after us.
                if self.next is not None:
                    raise ProtocolError(
                        f"{self.name}: second request reached the root "
                        f"while next={self.next} is set"
                    )
                self.next = origin
                if self._holds_token:
                    self._notify_pending()
        else:
            # Not the root: forward toward the probable owner.
            self._send(self.last, "request", {"origin": origin})
        # Path reversal: origin is now the probable owner.
        self.last = origin

    def _on_token(self, src: int, payload: Any) -> None:
        if self._holds_token:
            raise ProtocolError(f"{self.name}: received a second token")
        self._holds_token = True
        if self.state is not PeerState.REQ:
            raise ProtocolError(
                f"{self.name}: token arrived in state {self.state.value}"
            )
        self._grant()
