"""Figure-series generators: one function per figure of the paper.

Figures 4(a), 4(b), 5(a) and 5(b) all read off the same experiment
matrix — {Naimi-Naimi, Naimi-Martin, Naimi-Suzuki, original Naimi} × a
ρ sweep — so the sweep is computed once per scale and cached.  Figure 6
uses its own sweep with the *intra* algorithm varying instead.

Every generator returns a :class:`FigureData` whose ``series`` map the
paper's curve labels to y-values over the shared ρ/N axis.  The
benchmark harness prints them and asserts the qualitative shapes listed
in DESIGN.md §5.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..cache.store import CacheSpec, ExperimentCache, resolve_cache
from ..workload.behavior import PAPER_RHO_OVER_N_GRID
from .config import ExperimentConfig
from .runner import AggregateResult, _aggregate

__all__ = [
    "FigureScale",
    "QUICK_SCALE",
    "PAPER_SCALE",
    "scale_from_env",
    "FigureData",
    "inter_sweep",
    "intra_sweep",
    "clear_sweep_memo",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
    "fig6a",
    "fig6b",
    "ALL_FIGURES",
]


@dataclass(frozen=True)
class FigureScale:
    """Size of the experiment matrix behind the figures.

    ``PAPER_SCALE`` is the paper's setup (9×20 processes, 100 CS each,
    10 repetitions); ``QUICK_SCALE`` keeps the same 9-site latency
    structure at a fraction of the cost for CI-sized runs.
    """

    apps_per_cluster: int
    n_cs: int
    seeds: Tuple[int, ...]
    rho_over_n: Tuple[float, ...] = PAPER_RHO_OVER_N_GRID
    n_clusters: int = 9

    @property
    def n_apps(self) -> int:
        return self.n_clusters * self.apps_per_cluster


QUICK_SCALE = FigureScale(apps_per_cluster=4, n_cs=12, seeds=(0, 1))
PAPER_SCALE = FigureScale(
    apps_per_cluster=20, n_cs=100, seeds=tuple(range(10))
)


def scale_from_env() -> FigureScale:
    """``PAPER_SCALE`` when ``REPRO_FULL=1`` is set, else ``QUICK_SCALE``."""
    return PAPER_SCALE if os.environ.get("REPRO_FULL") == "1" else QUICK_SCALE


@dataclass(frozen=True)
class FigureData:
    """One reproduced figure: labelled series over the ρ/N axis."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    xs: Tuple[float, ...]
    series: Dict[str, Tuple[float, ...]]

    def to_table(self) -> str:
        from ..metrics.report import format_series_table

        return (
            f"{self.figure_id}: {self.title}\n"
            f"(y = {self.y_label})\n"
            + format_series_table(self.x_label, list(self.xs), dict(self.series))
        )


# --------------------------------------------------------------------- #
# sweeps (memoized per scale and cache, backed by the experiment cache)
# --------------------------------------------------------------------- #
SweepKey = Tuple[str, float]  # (curve label, rho_over_n)
Sweep = Dict[SweepKey, AggregateResult]

#: In-process memo replacing the old unbounded ``lru_cache``: the four
#: Fig 4/5 generators share one sweep per scale, but a long-lived
#: process sweeping many scales no longer pins every result set in
#: memory forever — persistence is the job of the on-disk
#: :class:`~repro.cache.ExperimentCache`, not of this dict.  The key
#: holds the store's :class:`~repro.cache.CacheSpec` (``None`` when
#: uncached): an uncached sweep handed to a cached call would leave that
#: cache unfilled and its counters at zero.
_SWEEP_MEMO: "Dict[Tuple[str, FigureScale, Optional[CacheSpec]], Sweep]" = {}
_SWEEP_MEMO_MAX = 4


def clear_sweep_memo() -> None:
    """Drop the in-process sweep memo (tests and cache-smoke runs)."""
    _SWEEP_MEMO.clear()


#: The curves of each sweep, in the paper's legend order, as the config
#: fields that tell them apart.  Fig 4/5 (``inter``): intra fixed to
#: Naimi, inter varying, plus the original (flat) Naimi; Fig 6
#: (``intra``): inter fixed to Naimi, intra varying.
_CURVES: Dict[str, Tuple[Tuple[str, Dict[str, str]], ...]] = {
    "inter": (
        ("naimi-naimi", {"intra": "naimi", "inter": "naimi"}),
        ("naimi-martin", {"intra": "naimi", "inter": "martin"}),
        ("naimi-suzuki", {"intra": "naimi", "inter": "suzuki"}),
        ("naimi (flat)", {"system": "flat", "intra": "naimi"}),
    ),
    "intra": (
        ("naimi-naimi", {"intra": "naimi", "inter": "naimi"}),
        ("martin-naimi", {"intra": "martin", "inter": "naimi"}),
        ("suzuki-naimi", {"intra": "suzuki", "inter": "naimi"}),
    ),
}


def _cells(
    kind: str, scale: FigureScale
) -> List[Tuple[SweepKey, ExperimentConfig]]:
    """The cell grid of a sweep (rho points × curves), unexecuted."""
    base = ExperimentConfig(
        n_clusters=scale.n_clusters,
        apps_per_cluster=scale.apps_per_cluster,
        n_cs=scale.n_cs,
    )
    return [
        ((label, x), base.with_(rho=x * scale.n_apps, **fields))
        for x in scale.rho_over_n
        for label, fields in _CURVES[kind]
    ]


def sweep_configs(kind: str, scale: FigureScale) -> List[ExperimentConfig]:
    """The exact config batch a sweep executes (cells × seeds, in the
    order :func:`_run_sweep` submits them).

    This is the farm's submission unit: distributing this list and
    collecting from the shared store reproduces the sweep results the
    figure generators read, byte for byte.
    """
    return _seeded(_cells(kind, scale), scale.seeds)


def _seeded(
    cells: List[Tuple[SweepKey, ExperimentConfig]], seeds: Tuple[int, ...]
) -> List[ExperimentConfig]:
    return [cfg.with_(seed=seed) for _, cfg in cells for seed in seeds]


def figure_configs(
    figure_id: str, scale: FigureScale
) -> List[ExperimentConfig]:
    """The config batch behind one figure (see :data:`FIGURE_SWEEPS`)."""
    return sweep_configs(FIGURE_SWEEPS[figure_id], scale)


def _run_sweep(
    kind: str, scale: FigureScale, cache: "ExperimentCache | str | None"
) -> Sweep:
    """Run the ``kind`` cells × seeds through the incremental scheduler
    and pool the per-cell aggregates."""
    store = resolve_cache(cache)
    memo_key = (kind, scale, store.spec if store is not None else None)
    memo = _SWEEP_MEMO.get(memo_key)
    if memo is not None:
        return memo
    from .parallel import run_configs_cached  # runtime import: no cycle

    cells = _cells(kind, scale)  # built once: for the configs and the sweep keys
    results = run_configs_cached(
        _seeded(cells, scale.seeds), cache=store, reuse_pool=True
    )
    n_seeds = len(scale.seeds)
    out: Sweep = {
        key: _aggregate(results[c * n_seeds: (c + 1) * n_seeds])
        for c, (key, _) in enumerate(cells)
    }
    if len(_SWEEP_MEMO) >= _SWEEP_MEMO_MAX:
        _SWEEP_MEMO.pop(next(iter(_SWEEP_MEMO)))
    _SWEEP_MEMO[memo_key] = out
    return out


def inter_sweep(
    scale: FigureScale, cache: "ExperimentCache | str | None" = "auto"
) -> Sweep:
    """The Fig 4/5 matrix: intra fixed to Naimi, inter ∈ {Naimi, Martin,
    Suzuki}, plus the original (flat) Naimi baseline.

    ``cache="auto"`` consults the experiment cache when ``REPRO_CACHE``
    is set (see :func:`repro.cache.cache_from_env`); pass an
    :class:`~repro.cache.ExperimentCache` to use one explicitly or
    ``None`` to force execution."""
    return _run_sweep("inter", scale, cache)


def intra_sweep(
    scale: FigureScale, cache: "ExperimentCache | str | None" = "auto"
) -> Sweep:
    """The Fig 6 matrix: inter fixed to Naimi, intra ∈ {Naimi, Martin,
    Suzuki}."""
    return _run_sweep("intra", scale, cache)


# --------------------------------------------------------------------- #
# figure generators
# --------------------------------------------------------------------- #
#: All that tells one figure from another: ``(id, sweep it reads, title,
#: y label, metric of one aggregated cell, docstring)``.
_FIGURES = (
    ("fig4a", "inter", "Composition evaluation: obtaining time",
     "mean obtaining time (ms)", lambda r: r.obtaining.mean,
     "Fig 4(a): obtaining time of application processes vs ρ."),
    ("fig4b", "inter", "Composition evaluation: inter-cluster sent messages",
     "inter-cluster messages per CS", lambda r: r.inter_messages_per_cs,
     "Fig 4(b): inter-cluster sent messages per CS vs ρ."),
    ("fig5a", "inter", "Obtaining time standard deviation",
     "obtaining time std (ms)", lambda r: r.obtaining.std,
     "Fig 5(a): standard deviation of the obtaining time vs ρ."),
    ("fig5b", "inter", "Obtaining time relative deviation",
     "sigma_r (std / mean)", lambda r: r.obtaining.relative_std,
     "Fig 5(b): relative deviation σ_r = σ/mean vs ρ."),
    ("fig6a", "intra", "Intra algorithm choice: obtaining time",
     "mean obtaining time (ms)", lambda r: r.obtaining.mean,
     "Fig 6(a): obtaining time vs ρ for the intra algorithm choice."),
    ("fig6b", "intra",
     "Intra algorithm choice: obtaining time standard deviation",
     "obtaining time std (ms)", lambda r: r.obtaining.std,
     "Fig 6(b): obtaining time std vs ρ for the intra algorithm choice\n"
     "(the paper's \"regularity\" argument for Naimi intra)."),
)


def _generator(
    figure_id: str,
    sweep_kind: str,
    title: str,
    y_label: str,
    metric: Callable[[AggregateResult], float],
    doc: str,
) -> Callable[..., FigureData]:
    def figure(
        scale: FigureScale, cache: "ExperimentCache | str | None" = "auto"
    ) -> FigureData:
        sweep = _run_sweep(sweep_kind, scale, cache)
        xs = tuple(scale.rho_over_n)
        return FigureData(
            figure_id, title, "rho/N", y_label, xs,
            {
                label: tuple(metric(sweep[(label, x)]) for x in xs)
                for label, _ in _CURVES[sweep_kind]
            },
        )

    figure.__name__ = figure.__qualname__ = figure_id
    figure.__doc__ = doc
    return figure


ALL_FIGURES = {row[0]: _generator(*row) for row in _FIGURES}
#: Which cell grid each figure draws from (Fig 4/5 share the inter
#: sweep, Fig 6 the intra sweep).
FIGURE_SWEEPS = {row[0]: row[1] for row in _FIGURES}
fig4a, fig4b, fig5a, fig5b, fig6a, fig6b = ALL_FIGURES.values()
