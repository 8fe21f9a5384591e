"""Messages exchanged by simulated processes.

A message is addressed to a *(node, port)* pair: the node selects the
machine, the port selects the agent on that machine (an intra-algorithm
peer, an inter-algorithm peer, an application endpoint...).  This mirrors
the paper's implementation, where each algorithm instance owns its own UDP
socket on the host.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["Message", "DEFAULT_MESSAGE_SIZE"]

#: Nominal wire size (bytes) charged to a message when the sender does not
#: specify one.  Chosen to approximate a small UDP control datagram.
DEFAULT_MESSAGE_SIZE = 64

_UNSTAMPED = float("nan")  # one shared NaN: parsing it per message adds up


class Message:
    """An in-flight (or delivered) message.

    A handler must not mutate the payload: the direct receivers of a
    broadcast share one (:meth:`~repro.net.network.Network.multicast`).

    Attributes
    ----------
    src, dst:
        Node ids of the sending and receiving machines.
    port:
        Name of the protocol instance this message belongs to; delivery
        dispatches on ``(dst, port)``.
    kind:
        Protocol-specific message type (``"request"``, ``"token"``, ...).
    payload:
        Protocol-specific fields.  Immutable after send.
    size:
        Nominal size in bytes, used only by the statistics layer.
    sent_at:
        Simulated send time, stamped by the network.  A message carries
        no delivery time: a handler reads ``sim.now``, and an observer
        the ``time`` of the ``deliver`` trace record (which also
        carries ``seq`` and ``sent_at``).
    seq:
        Network-global monotone delivery sequence number, stamped when
        the delivery is scheduled.  Strictly orders same-instant sends,
        which timestamps cannot; the recovery layer's epoch fence keys
        on it (-1 until stamped).
    """

    __slots__ = (
        "src",
        "dst",
        "port",
        "kind",
        "payload",
        "size",
        "sent_at",
        "seq",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        port: str,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        size: int = DEFAULT_MESSAGE_SIZE,
    ) -> None:
        self.src = src
        self.dst = dst
        self.port = port
        self.kind = kind
        self.payload = payload if payload is not None else {}
        self.size = size
        self.sent_at: float = _UNSTAMPED
        self.seq: int = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Message {self.kind} {self.src}->{self.dst} port={self.port} "
            f"payload={self.payload!r}>"
        )
