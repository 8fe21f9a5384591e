"""Aggregated observability report.

:class:`ObsReport` is the picklable summary stored on
``ExperimentResult.obs_report`` when an experiment runs with the ``obs``
knob on: counters at every level, plus the critical-path breakdown when
the level records causality.  Exact :class:`~fractions.Fraction` sums
are verified at build time and the report keeps the boolean (``exact``)
plus float views of the per-category durations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from ..metrics.report import format_breakdown
from .path import CATEGORIES, CriticalPath

__all__ = ["PathDetail", "ObsReport", "build_report", "format_obs_report"]


@dataclass(frozen=True)
class PathDetail:
    """Per-CS row kept at the ``trace`` verbosity level."""

    node: int
    cluster: int
    requested_at: float
    obtaining_ms: float
    category_ms: Tuple[Tuple[str, float], ...]
    lan_ms: float
    wan_ms: float


@dataclass(frozen=True)
class ObsReport:
    """What one observed run can explain about itself."""

    level: str
    counters: Dict[str, int]
    n_paths: int = 0
    #: every path's segments summed exactly to its obtaining time
    exact: bool = True
    obtaining_total_ms: float = 0.0
    category_ms: Dict[str, float] = field(default_factory=dict)
    lan_ms: float = 0.0
    wan_ms: float = 0.0
    paths: Tuple[PathDetail, ...] = ()

    @property
    def wan_dominated(self) -> bool:
        """Whether time outside the requesters' clusters dominates."""
        return self.wan_ms > self.lan_ms


def build_report(
    level: str,
    counters: Dict[str, int],
    paths: Sequence[CriticalPath] = (),
    keep_details: bool = False,
) -> ObsReport:
    """Fold critical paths into an :class:`ObsReport`.

    Aggregation runs in exact rational arithmetic and converts to floats
    only at the edges, so ``exact`` really certifies the tiling identity
    for *every* path, not a rounded version of it.
    """
    if not paths:
        return ObsReport(level=level, counters=dict(counters))
    totals: Dict[str, Fraction] = {c: Fraction(0) for c in CATEGORIES}
    lan = wan = grand = Fraction(0)
    exact = True
    details = []
    for path in paths:
        exact = exact and path.is_exact()
        grand += Fraction(path.granted_at) - Fraction(path.requested_at)
        path_totals = path.totals()
        for category, dur in path_totals.items():
            totals[category] += dur
        p_lan, p_wan = path.locality_split()
        lan += p_lan
        wan += p_wan
        if keep_details:
            details.append(
                PathDetail(
                    node=path.node,
                    cluster=path.cluster,
                    requested_at=path.requested_at,
                    obtaining_ms=path.obtaining_time,
                    category_ms=tuple(
                        (c, float(d)) for c, d in path_totals.items() if d
                    ),
                    lan_ms=float(p_lan),
                    wan_ms=float(p_wan),
                )
            )
    return ObsReport(
        level=level,
        counters=dict(counters),
        n_paths=len(paths),
        exact=exact,
        obtaining_total_ms=float(grand),
        category_ms={c: float(v) for c, v in totals.items()},
        lan_ms=float(lan),
        wan_ms=float(wan),
        paths=tuple(details),
    )


def format_obs_report(report: ObsReport, title: str = "") -> str:
    """Compact text rendering (what ``repro run --obs`` prints)."""
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(f"obs level: {report.level}")
    lines.append("counters:")
    for key, value in report.counters.items():
        lines.append(f"  {key:<24} {value}")
    if report.n_paths:
        lines.append("")
        lines.append(
            f"critical paths: {report.n_paths} CS entries, "
            f"total wait {report.obtaining_total_ms:.3f} ms "
            f"({'exact' if report.exact else 'INEXACT'} decomposition)"
        )
        lines.append(
            format_breakdown(
                [(c, report.category_ms.get(c, 0.0)) for c in CATEGORIES],
                report.obtaining_total_ms,
            )
        )
        dominance = "WAN" if report.wan_dominated else "LAN"
        lines.append(
            f"  locality (vs requester): LAN {report.lan_ms:.3f} ms, "
            f"WAN {report.wan_ms:.3f} ms -> {dominance}-dominated"
        )
    return "\n".join(lines)
