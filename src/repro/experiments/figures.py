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
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache.store import CacheStats, ExperimentCache, resolve_cache
from ..metrics.analysis import pooled
from ..workload.behavior import PAPER_RHO_OVER_N_GRID
from .config import ExperimentConfig
from .runner import AggregateResult

__all__ = [
    "FigureScale",
    "QUICK_SCALE",
    "PAPER_SCALE",
    "scale_from_env",
    "FigureData",
    "inter_sweep",
    "intra_sweep",
    "clear_sweep_memo",
    "last_sweep_cache_stats",
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
# sweeps (memoized per scale, backed by the experiment cache)
# --------------------------------------------------------------------- #
SweepKey = Tuple[str, float]  # (curve label, rho_over_n)
Sweep = Dict[SweepKey, AggregateResult]

#: In-process memo replacing the old unbounded ``lru_cache``: the four
#: Fig 4/5 generators share one sweep per scale, but a long-lived
#: process sweeping many scales no longer pins every result set in
#: memory forever — persistence is the job of the on-disk
#: :class:`~repro.cache.ExperimentCache`, not of this dict.
_SWEEP_MEMO: "Dict[Tuple[str, FigureScale], Sweep]" = {}
_SWEEP_MEMO_MAX = 4

#: Counter snapshot of the last sweep that consulted the experiment
#: cache (for CLI/suite reporting); ``None`` when caching was off.
_LAST_CACHE_STATS: List[Optional[CacheStats]] = [None]


def clear_sweep_memo() -> None:
    """Drop the in-process sweep memo (tests and cache-smoke runs)."""
    _SWEEP_MEMO.clear()
    _LAST_CACHE_STATS[0] = None


def last_sweep_cache_stats() -> Optional[CacheStats]:
    """Experiment-cache counters of the most recent uncached-memo sweep."""
    return _LAST_CACHE_STATS[0]


def _base_config(scale: FigureScale) -> ExperimentConfig:
    return ExperimentConfig(
        n_clusters=scale.n_clusters,
        apps_per_cluster=scale.apps_per_cluster,
        n_cs=scale.n_cs,
    )


def _inter_cells(
    scale: FigureScale,
) -> List[Tuple[SweepKey, ExperimentConfig]]:
    """The Fig 4/5 cell grid (labels × rho points), unexecuted."""
    base = _base_config(scale)
    cells: List[Tuple[SweepKey, ExperimentConfig]] = []
    for x in scale.rho_over_n:
        rho = x * scale.n_apps
        for inter in ("naimi", "martin", "suzuki"):
            cells.append((
                (f"naimi-{inter}", x),
                base.with_(intra="naimi", inter=inter, rho=rho),
            ))
        cells.append((
            ("naimi (flat)", x),
            base.with_(system="flat", intra="naimi", rho=rho),
        ))
    return cells


def _intra_cells(
    scale: FigureScale,
) -> List[Tuple[SweepKey, ExperimentConfig]]:
    """The Fig 6 cell grid (labels × rho points), unexecuted."""
    base = _base_config(scale)
    cells: List[Tuple[SweepKey, ExperimentConfig]] = []
    for x in scale.rho_over_n:
        rho = x * scale.n_apps
        for intra in ("naimi", "martin", "suzuki"):
            cells.append((
                (f"{intra}-naimi", x),
                base.with_(intra=intra, inter="naimi", rho=rho),
            ))
    return cells


#: Which cell grid each figure draws from (Fig 4/5 share the inter
#: sweep, Fig 6 the intra sweep).
FIGURE_SWEEPS = {
    "fig4a": "inter",
    "fig4b": "inter",
    "fig5a": "inter",
    "fig5b": "inter",
    "fig6a": "intra",
    "fig6b": "intra",
}

_CELL_BUILDERS = {"inter": _inter_cells, "intra": _intra_cells}


def sweep_configs(kind: str, scale: FigureScale) -> List[ExperimentConfig]:
    """The exact config batch a sweep executes (cells × seeds, in the
    order :func:`_run_sweep` submits them).

    This is the farm's submission unit: distributing this list and
    collecting from the shared store reproduces the sweep results the
    figure generators read, byte for byte.
    """
    cells = _CELL_BUILDERS[kind](scale)
    return [cfg.with_(seed=seed) for _, cfg in cells for seed in scale.seeds]


def figure_configs(
    figure_id: str, scale: FigureScale
) -> List[ExperimentConfig]:
    """The config batch behind one figure (see :data:`FIGURE_SWEEPS`)."""
    return sweep_configs(FIGURE_SWEEPS[figure_id], scale)


def _run_sweep(
    kind: str,
    scale: FigureScale,
    cells: Sequence[Tuple[SweepKey, ExperimentConfig]],
    cache: "ExperimentCache | str | None",
) -> Sweep:
    """Run ``cells`` (label → config template) × seeds through the
    incremental scheduler and pool the per-cell aggregates."""
    memo_key = (kind, scale)
    memo = _SWEEP_MEMO.get(memo_key)
    if memo is not None:
        return memo
    store = resolve_cache(cache)
    configs = [
        cfg.with_(seed=seed) for _, cfg in cells for seed in scale.seeds
    ]
    from .parallel import run_configs_cached  # runtime import: no cycle

    results = run_configs_cached(configs, cache=store, reuse_pool=True)
    out: Sweep = {}
    n_seeds = len(scale.seeds)
    for c, (key, _) in enumerate(cells):
        runs = tuple(results[c * n_seeds: (c + 1) * n_seeds])
        out[key] = AggregateResult(
            name=runs[0].name,
            runs=runs,
            obtaining=pooled([r.obtaining for r in runs]),
        )
    if len(_SWEEP_MEMO) >= _SWEEP_MEMO_MAX:
        _SWEEP_MEMO.pop(next(iter(_SWEEP_MEMO)))
    _SWEEP_MEMO[memo_key] = out
    _LAST_CACHE_STATS[0] = store.stats.snapshot() if store else None
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
    return _run_sweep("inter", scale, _inter_cells(scale), cache)


def intra_sweep(
    scale: FigureScale, cache: "ExperimentCache | str | None" = "auto"
) -> Sweep:
    """The Fig 6 matrix: inter fixed to Naimi, intra ∈ {Naimi, Martin,
    Suzuki}."""
    return _run_sweep("intra", scale, _intra_cells(scale), cache)


def _extract(
    sweep: Sweep,
    labels: Sequence[str],
    xs: Sequence[float],
    metric,
) -> Dict[str, Tuple[float, ...]]:
    return {
        label: tuple(metric(sweep[(label, x)]) for x in xs)
        for label in labels
    }


_INTER_LABELS = ("naimi-naimi", "naimi-martin", "naimi-suzuki", "naimi (flat)")
_INTRA_LABELS = ("naimi-naimi", "martin-naimi", "suzuki-naimi")


# --------------------------------------------------------------------- #
# figure generators
# --------------------------------------------------------------------- #
def fig4a(
    scale: FigureScale, cache: "ExperimentCache | str | None" = "auto"
) -> FigureData:
    """Fig 4(a): obtaining time of application processes vs ρ."""
    sweep = inter_sweep(scale, cache=cache)
    return FigureData(
        "fig4a",
        "Composition evaluation: obtaining time",
        "rho/N",
        "mean obtaining time (ms)",
        tuple(scale.rho_over_n),
        _extract(sweep, _INTER_LABELS, scale.rho_over_n,
                 lambda r: r.obtaining.mean),
    )


def fig4b(
    scale: FigureScale, cache: "ExperimentCache | str | None" = "auto"
) -> FigureData:
    """Fig 4(b): inter-cluster sent messages per CS vs ρ."""
    sweep = inter_sweep(scale, cache=cache)
    return FigureData(
        "fig4b",
        "Composition evaluation: inter-cluster sent messages",
        "rho/N",
        "inter-cluster messages per CS",
        tuple(scale.rho_over_n),
        _extract(sweep, _INTER_LABELS, scale.rho_over_n,
                 lambda r: r.inter_messages_per_cs),
    )


def fig5a(
    scale: FigureScale, cache: "ExperimentCache | str | None" = "auto"
) -> FigureData:
    """Fig 5(a): standard deviation of the obtaining time vs ρ."""
    sweep = inter_sweep(scale, cache=cache)
    return FigureData(
        "fig5a",
        "Obtaining time standard deviation",
        "rho/N",
        "obtaining time std (ms)",
        tuple(scale.rho_over_n),
        _extract(sweep, _INTER_LABELS, scale.rho_over_n,
                 lambda r: r.obtaining.std),
    )


def fig5b(
    scale: FigureScale, cache: "ExperimentCache | str | None" = "auto"
) -> FigureData:
    """Fig 5(b): relative deviation σ_r = σ/mean vs ρ."""
    sweep = inter_sweep(scale, cache=cache)
    return FigureData(
        "fig5b",
        "Obtaining time relative deviation",
        "rho/N",
        "sigma_r (std / mean)",
        tuple(scale.rho_over_n),
        _extract(sweep, _INTER_LABELS, scale.rho_over_n,
                 lambda r: r.obtaining.relative_std),
    )


def fig6a(
    scale: FigureScale, cache: "ExperimentCache | str | None" = "auto"
) -> FigureData:
    """Fig 6(a): obtaining time vs ρ for the intra algorithm choice."""
    sweep = intra_sweep(scale, cache=cache)
    return FigureData(
        "fig6a",
        "Intra algorithm choice: obtaining time",
        "rho/N",
        "mean obtaining time (ms)",
        tuple(scale.rho_over_n),
        _extract(sweep, _INTRA_LABELS, scale.rho_over_n,
                 lambda r: r.obtaining.mean),
    )


def fig6b(
    scale: FigureScale, cache: "ExperimentCache | str | None" = "auto"
) -> FigureData:
    """Fig 6(b): obtaining time std vs ρ for the intra algorithm choice
    (the paper's "regularity" argument for Naimi intra)."""
    sweep = intra_sweep(scale, cache=cache)
    return FigureData(
        "fig6b",
        "Intra algorithm choice: obtaining time standard deviation",
        "rho/N",
        "obtaining time std (ms)",
        tuple(scale.rho_over_n),
        _extract(sweep, _INTRA_LABELS, scale.rho_over_n,
                 lambda r: r.obtaining.std),
    )


ALL_FIGURES = {
    "fig4a": fig4a,
    "fig4b": fig4b,
    "fig5a": fig5a,
    "fig5b": fig5b,
    "fig6a": fig6a,
    "fig6b": fig6b,
}
