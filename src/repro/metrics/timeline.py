"""Critical-section timelines and token-locality analysis.

Records application CS occupancy from trace events and renders an ASCII
gantt (one row per cluster).  Beyond debugging, it quantifies the
mechanism behind Figure 4: the composition *batches* consecutive
critical sections inside one cluster while the inter token is home —
visible as runs of same-cluster entries — whereas the flat algorithm
bounces across clusters.  :meth:`locality_ratio` measures exactly that.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from ..net.topology import GridTopology
from ..sim.trace import TraceRecord, Tracer

__all__ = ["TimelineRecorder", "is_app_cs_port"]


def is_app_cs_port(port: str) -> bool:
    """Whether ``port`` carries application-facing critical sections:
    the intra level of a composition, or a flat instance.  The runner's
    safety checker needs no port rule: it is scoped by the peers it
    watches (``MutualExclusionChecker().watch(...)`` over the
    applications' peers)."""
    return port.startswith("intra") or port == "flat"


class TimelineRecorder:
    """Collects application CS enter/exit events for one run.

    Parameters
    ----------
    tracer:
        The simulator's tracer.
    topology:
        Used to map nodes to clusters.
    app_nodes:
        Nodes whose CS events count as *application* critical sections
        (coordinator slots are excluded).
    """

    def __init__(
        self,
        tracer: Tracer,
        topology: GridTopology,
        app_nodes,
    ) -> None:
        self.topology = topology
        self._apps = frozenset(app_nodes)
        #: (enter_time, exit_time, node, cluster); exit may be nan while open
        self.intervals: List[Tuple[float, float, int, int]] = []
        self._open: dict[int, float] = {}
        tracer.subscribe("cs_enter", self._on_enter)
        tracer.subscribe("cs_exit", self._on_exit)

    # ------------------------------------------------------------------ #
    def _relevant(self, rec: TraceRecord) -> bool:
        return rec.node in self._apps and is_app_cs_port(rec.port)

    def _on_enter(self, rec: TraceRecord) -> None:
        if self._relevant(rec):
            self._open[rec.node] = rec.time

    def _on_exit(self, rec: TraceRecord) -> None:
        if not self._relevant(rec):
            return
        start = self._open.pop(rec.node, None)
        if start is not None:
            self.intervals.append(
                (start, rec.time, rec.node, self.topology.cluster_of(rec.node))
            )

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def entry_clusters(self) -> List[int]:
        """Cluster of each CS entry, in entry order — the token's journey
        at cluster granularity."""
        return [c for _, _, _, c in sorted(self.intervals)]

    def locality_ratio(self) -> float:
        """Fraction of consecutive CS entries that stay in the same
        cluster.  High values mean the mutual exclusion service batches
        local requests (the composition's whole point); a flat algorithm
        at high contention approaches the random baseline ``1/n_clusters``.
        """
        clusters = self.entry_clusters()
        if len(clusters) < 2:
            return 1.0
        same = sum(
            1 for a, b in zip(clusters, clusters[1:]) if a == b
        )
        return same / (len(clusters) - 1)

    def cluster_runs(self) -> List[Tuple[int, int]]:
        """Maximal runs of consecutive same-cluster entries as
        ``(cluster, length)`` pairs."""
        runs: List[Tuple[int, int]] = []
        for cluster in self.entry_clusters():
            if runs and runs[-1][0] == cluster:
                runs[-1] = (cluster, runs[-1][1] + 1)
            else:
                runs.append((cluster, 1))
        return runs

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def render(self, width: int = 72) -> str:
        """ASCII gantt: one row per cluster, ``#`` where some application
        process of that cluster occupied the CS during the bucket."""
        if not self.intervals:
            return "(no critical sections recorded)"
        start = min(t0 for t0, _, _, _ in self.intervals)
        end = max(t1 for _, t1, _, _ in self.intervals)
        span = max(end - start, 1e-9)
        bucket = span / width
        rows = []
        for ci in range(self.topology.n_clusters):
            cells = [" "] * width
            for t0, t1, _, cluster in self.intervals:
                if cluster != ci:
                    continue
                first = int((t0 - start) / bucket)
                last = int(math.ceil((t1 - start) / bucket)) - 1
                for k in range(max(first, 0), min(last, width - 1) + 1):
                    cells[k] = "#"
            name = self.topology.clusters[ci].name[:10].ljust(10)
            rows.append(f"{name}|{''.join(cells)}|")
        header = (
            f"CS occupancy, t = {start:.1f} .. {end:.1f} ms "
            f"({bucket:.1f} ms/column)"
        )
        return "\n".join([header, *rows])
