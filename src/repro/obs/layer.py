"""The observability layer: one attach point for a whole run.

:class:`ObservabilityLayer` bundles the counters, the causality
recorder and the critical-path extractor behind a single verbosity
knob, matching ``ExperimentConfig.obs``:

========== ==========================================================
``off``    nothing attached (the layer refuses this level — callers
           simply don't construct one)
``counters`` :meth:`ObservabilityLayer.counters`, a read at report time
           of what every run counts anyway: nothing is subscribed,
           so the run stays fused and direct
``paths``  counters + vector clocks + critical-path breakdown
``trace``  everything above, plus per-CS rows in the report and
           Chrome trace export
========== ==========================================================
"""

from __future__ import annotations

from typing import IO, Any, Dict, Iterator, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..net.network import Network
from ..net.topology import GridTopology
from ..sim.kernel import Simulator
from .causality import CausalityRecorder
from .export import Span, write_trace
from .path import CriticalPath, extract_paths
from .report import ObsReport, build_report

__all__ = ["OBS_LEVELS", "ObservabilityLayer"]

#: Verbosity levels of the ``obs`` experiment knob, in increasing order:
#: ``off`` attaches nothing (the hot path stays bare), ``counters`` adds
#: cheap event counters, ``paths`` adds vector clocks + critical-path
#: breakdown, ``trace`` additionally keeps per-CS rows and enables
#: Chrome trace export.
OBS_LEVELS: Tuple[str, ...] = ("off", "counters", "paths", "trace")

#: Trace threads of every node: critical sections and CS waits, inbound
#: messages (one span per delivery, from send to delivery), and
#: critical-path segments.
_THREADS = ("critical sections", "inbound messages", "critical path")


class ObservabilityLayer:
    """Attach observability to a simulation at a chosen verbosity.

    Construct *after* the mutex system and *before* the workload runs:
    counters count from here, and the recorder sees every trace record
    from here on.  The layer never sends traffic, wraps a handler or
    perturbs schedules — instrumented runs stay digest-identical to
    bare ones.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        level: str = "paths",
        app_nodes: Optional[Sequence[int]] = None,
        coordinator_nodes: Sequence[int] = (),
    ) -> None:
        if level not in OBS_LEVELS or level == "off":
            raise ConfigurationError(
                f"obs level must be one of {OBS_LEVELS[1:]}, got {level!r}"
            )
        self.level = level
        self.sim = sim
        self.net = net
        self.topology: GridTopology = net.topology
        self.coordinator_nodes = tuple(coordinator_nodes)
        # Counters count from here; detach() freezes them.
        self._final: Optional[Dict[str, int]] = None
        self._since: Dict[str, int] = {}
        self._since = self.counters()
        self.recorder: Optional[CausalityRecorder] = None
        if level in ("paths", "trace"):
            self.recorder = CausalityRecorder(sim, net, app_nodes=app_nodes)
        self._paths: Optional[Tuple[CriticalPath, ...]] = None

    def counters(self) -> Dict[str, int]:
        """Sends by locality and kind, deliveries and CS edges of every
        peer since this layer attached (until it detached), in a fixed
        order.  A read: the sends are ``net.stats``, tallied inline by
        ``Network.send``/``multicast`` on every run, the CS edges three
        ints :class:`~repro.mutex.base.MutexPeer` bumps per critical
        section, the deliveries :attr:`Network.delivered`.  A message
        kind not sent since the layer attached has no row."""
        if self._final is not None:
            return self._final
        stats, since = self.net.stats, self._since
        out = {
            key: value - since.get(key, 0)
            for key, value in (
                ("sends", stats.total),
                ("delivers", self.net.delivered),
                ("intra_sends", stats.intra_cluster + stats.local),
                ("inter_sends", stats.inter_cluster),
                ("cs_requests", stats.cs_requests),
                ("cs_entries", stats.cs_entries),
                ("cs_exits", stats.cs_exits),
            )
        }
        for kind in sorted(stats.by_kind):
            key = f"send.{kind}"
            count = stats.by_kind[kind] - since.get(key, 0)
            if count:
                out[key] = count
        return out

    def detach(self) -> None:
        """Stop observing; recorded data stays readable."""
        self._final = self.counters()
        if self.recorder is not None:
            self.recorder.detach()

    def paths(self) -> Tuple[CriticalPath, ...]:
        """Critical paths of every completed CS (cached after first call)."""
        if self.recorder is None:
            return ()
        if self._paths is None or len(self._paths) != len(self.recorder.waits):
            self._paths = extract_paths(
                self.recorder, self.topology, self.coordinator_nodes
            )
        return self._paths

    def report(self) -> ObsReport:
        """Aggregate everything observed so far into a picklable report."""
        return build_report(
            self.level,
            self.counters(),
            self.paths(),
            keep_details=(self.level == "trace"),
        )

    def write_chrome_trace(self, out: Union[str, IO[str]]) -> None:
        """Export the run as Chrome trace-event JSON (Perfetto-loadable):
        one process per node, named after its cluster (coordinators
        marked).

        Requires a causality-recording level (``paths`` or ``trace``)."""
        if self.recorder is None:
            raise ConfigurationError(
                "chrome trace export needs obs level 'paths' or 'trace'"
            )
        topology = self.topology
        write_trace(
            out,
            [(node, f"node {node} / {topology.cluster_name(node)}")
             for node in topology.nodes],
            set(self.coordinator_nodes),
            _THREADS,
            _spans(self.recorder, self.paths()),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ObservabilityLayer level={self.level}>"


def _spans(
    recorder: CausalityRecorder, paths: Sequence[CriticalPath]
) -> Iterator[Span]:
    """The run's spans: CS occupancy and waits on thread 0, deliveries
    on thread 1, critical-path segments on thread 2."""
    for node, entered, exited in recorder.occupancy:
        yield node, 0, "cs", entered, exited - entered, {"node": node}
    for wait in recorder.waits:
        yield (wait.node, 0, "wait", wait.requested_at,
               wait.obtaining_time, {"port": wait.port})
    for rec in recorder.all_deliveries():
        yield rec.dst, 1, rec.kind, rec.sent_at, rec.latency, {
            "src": rec.src, "dst": rec.dst,
            "port": rec.port, "seq": rec.seq,
        }
    for path in paths:
        for seg in path.segments:
            args: Dict[str, Any] = {"for_node": path.node, "lan": seg.lan}
            if seg.is_hop:
                args["src"] = seg.src
                args["kind"] = seg.kind
            yield seg.node, 2, seg.category, seg.start, seg.duration, args
