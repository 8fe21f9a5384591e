"""The compiled transport: a message-free send→schedule→dispatch path.

:class:`CompiledNetwork` is a drop-in :class:`~repro.net.network.Network`.
Its ``send`` *is* the base class's (fused when the network is plain, see
:mod:`repro.net.network`); what it adds is the **ultra send**
(:meth:`CompiledNetwork.fast_send`, used by the promoted peer classes of
:mod:`repro.compile.peers`), which skips the :class:`Message` allocation
entirely: the table handler is resolved at send time and the bare
calendar entry *is* the dispatch — its callback is the single-frame
``_fast_on_<kind>`` handler with ``(peer, src, payload)`` as arguments.
The receiver comes from the base class's one route table (the owner a
:class:`~repro.mutex.base.MutexPeer` registers itself as), its fast
table from the owner's class at send time.

Equivalence is structural, not statistical: every inlined step
reproduces the interpreted code **exactly** — same statistics counters,
same trace records, same RNG draw sequence (local and jitter-free sends
draw nothing, exactly as ``one_way`` skips the draw), same
``Message.seq`` and kernel ``seq`` consumption, same tie-salt mixing —
so a compiled run's :class:`~repro.verify.digest.RunDigest` is
bit-identical to the interpreted run's.  The golden matrix in
``tests/properties`` gates this.

Anything the ultra path cannot reproduce exactly — crash controllers,
fault injectors, per-flow FIFO, interception, send taps, ``deliver``
subscribers, a receiver that is not table-dispatchable — goes through
the inherited ``send``, which is equivalence by construction.
"""

from __future__ import annotations

import logging
from heapq import heappush
from typing import Optional

from ..net.latency import LOCAL_DELIVERY_MS
from ..net.network import _NO_ROUTES, Network
from ..sim.kernel import HeapEntry, _mix64
from .tables import fast_table

__all__ = ["CompiledNetwork"]

logger = logging.getLogger(__name__)


class CompiledNetwork(Network):
    """Table-driven :class:`~repro.net.network.Network` (see module doc)."""

    #: Deferred ultra-path counter buffer: ``(src, dst, port, kind,
    #: size) -> count``, folded into MessageStats at flush time.  A dict
    #: upsert costs marginally more than a list append per send, but the
    #: buffer stays at the handful of distinct key tuples instead of
    #: growing by one GC-tracked tuple per message.  Class default
    #: ``None`` keeps the :attr:`stats` property safe while the base
    #: constructor runs.
    _pending_stats: Optional[dict] = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pending_stats = {}
        # Immutable for the run: set once in Simulator.__init__.
        self._salt = self.sim._tie_salt
        latency = self.latency
        if not self._inline_latency:
            logger.info(
                "latency model %s falls off the compiled inline fast "
                "path (no stock delay table); sends go through the "
                "interpreted one_way() per call",
                type(latency).__name__,
            )
        self._zero_jitter = latency._sigma <= 0.0

    # ------------------------------------------------------------------ #
    # deferred statistics
    # ------------------------------------------------------------------ #
    # The ultra path buffers each send as one list append and applies
    # the full `MessageStats.record` arithmetic lazily: every counter is
    # a plain sum, so replaying `n` identical sends in one step is exact.
    # All reads go through the `stats` property, which materialises the
    # buffer first — so any observer (including one called synchronously
    # from a `send` trace record) sees the same values the interpreted
    # backend would have at that instant.
    @property
    def stats(self):
        if self._pending_stats:
            self._flush_stats()
        return self._stats_obj

    @stats.setter
    def stats(self, value) -> None:
        self._stats_obj = value

    def _flush_stats(self) -> None:
        st = self._stats_obj
        pending = self._pending_stats
        self._pending_stats = {}
        cluster_of = st._cluster_of
        for (src, dst, port, kind, size), n in pending.items():
            st.total += n
            st.bytes_total += size * n
            st.by_port[port] += n
            st.by_kind[kind] += n
            if src == dst:
                st.local += n
                continue
            ci = cluster_of[src]
            cj = cluster_of[dst]
            st._matrix[ci][cj] += n
            if ci == cj:
                st.intra_cluster += n
            else:
                st.inter_cluster += n
                st.bytes_inter_cluster += size * n
                st.inter_by_port[port] += n

    # ------------------------------------------------------------------ #
    # ultra send (promoted peers only)
    # ------------------------------------------------------------------ #
    def fast_send(
        self,
        src: int,
        dst: int,
        port: str,
        kind: str,
        payload: Optional[dict],
        size: int,
    ) -> None:
        """Message-free send for promoted peers (single frame end to end).

        Falls back to :meth:`send` whenever an observer could tell the
        difference: taps, ``deliver`` subscribers, slow-path networks
        (all of which clear the base class's direct-dispatch gate or the
        tap tuple), a receiver without a direct route or a fast table,
        or a kind outside the receiver's table (the Message path raises
        the interpreted ``ProtocolError`` at delivery time, as the
        dynamic dispatch would).  The stats/emit/latency steps below are
        those of the base class's fused ``send``, with the counters
        deferred — same counters, same trace records, same RNG
        consumption.

        The table handler is scheduled *directly* (no dispatch-time
        re-check of the registration): only promoted peers call this
        method, and promotion is refused on systems that rewire, wrap or
        unregister handlers mid-run (crash/recovery, adaptive) — so
        between send and delivery the resolved handler cannot change.
        """
        sim = self.sim
        fn = None
        if self._direct and not self._send_taps:
            route = self._routes.get(port, _NO_ROUTES).get(dst)
            peer = None if route is None else route[1]
            if peer is not None:
                # The class is read per send: promotion swaps it.
                fast = fast_table(type(peer))
                if fast is not None:
                    fn = fast.get(kind)
        if fn is None:
            self.send(src, dst, port, kind, payload, size)
            return
        # No src validation here: the only callers are promoted peers
        # sending from their own (validated-at-registration) node; the
        # fallback `send` above still checks for the Message path.
        pending = self._pending_stats
        key = (src, dst, port, kind, size)
        try:
            pending[key] += 1
        except KeyError:
            pending[key] = 1
        now = sim._now
        if self._trace_send:
            sim.trace.emit(
                "send", time=now, src=src, dst=dst, port=port,
                kind=kind, payload={} if payload is None else payload,
            )
        latency = self.latency
        if self._inline_latency and latency._batch is None:
            if src == dst:
                due = now + LOCAL_DELIVERY_MS  # no jitter draw
            else:
                table = self._lat_table
                if table is not None:
                    base = table[src][dst]
                else:  # large grid: cluster block table
                    cluster_of = self._lat_cluster_of
                    base = self._lat_ctab[cluster_of[src]][cluster_of[dst]]
                if self._zero_jitter:
                    due = now + base
                else:
                    due = now + base * float(
                        self._rng.lognormal(
                            mean=latency._lognorm_mean, sigma=latency._sigma
                        )
                    )
        else:
            due = now + latency.one_way(src, dst, self._rng)
        self._seq += 1  # Message.seq watermark, identically consumed
        seq = sim._seq
        salt = self._salt
        if salt is not None:
            seq = _mix64(seq ^ salt)
        entry: HeapEntry = (due, seq, fn, (peer, src, payload))
        heappush(sim._heap, entry)
        sim._seq += 1
