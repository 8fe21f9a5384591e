"""Deterministic run digests.

Because the simulator is a pure function of (configuration, seed), an
entire run can be summarised by hashing its observable event stream:
every message send and every CS entry/exit, with timestamps.  Two uses:

* **regression pinning** — a golden digest in a test detects *any*
  behavioural change in kernel, network or algorithms, even ones that
  leave aggregate metrics untouched;
* **equivalence checks** — e.g. that a refactor, a parallel runner or a
  trace consumer does not perturb the simulation.

The digest covers event *content*, not wall-clock, and is stable across
processes and Python versions that preserve float repr (CPython ≥ 3.1).
"""

from __future__ import annotations

import hashlib

from ..sim.kernel import Simulator
from ..sim.trace import TraceRecord

__all__ = ["DIGEST_KINDS", "RunDigest"]

#: The trace kinds a digest observes.  Deliveries are implied by sends
#: in a deterministic network, and hashing both would double the
#: tracing cost.
DIGEST_KINDS = ("send", "cs_enter", "cs_exit")


class RunDigest:
    """Accumulates a SHA-256 over a run's observable events.

    Attach before running; read :attr:`hexdigest` after.  Subscribes to
    :data:`DIGEST_KINDS`.
    """

    def __init__(self, sim: Simulator) -> None:
        self._hash = hashlib.sha256()
        self.events = 0
        for kind in DIGEST_KINDS:
            sim.trace.subscribe(
                kind, self._on_send if kind == "send" else self._on_cs
            )

    def _feed(self, *parts: object) -> None:
        self.events += 1
        for part in parts:
            self._hash.update(repr(part).encode())
            self._hash.update(b"\x1f")
        self._hash.update(b"\x1e")

    def _on_send(self, rec: TraceRecord) -> None:
        self._feed(
            "send", rec.time, rec.src, rec.dst, rec.port,
            rec.fields.get("kind"), sorted(rec.fields.get("payload", {}).items()),
        )

    def _on_cs(self, rec: TraceRecord) -> None:
        self._feed(rec.kind, rec.time, rec.node, rec.port)

    @property
    def hexdigest(self) -> str:
        """Digest of everything observed so far."""
        return self._hash.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunDigest events={self.events} {self.hexdigest[:12]}...>"
