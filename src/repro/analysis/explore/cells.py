"""The default verification matrix and its runner.

A cell is an :class:`~repro.experiments.ExperimentConfig` plus bounds.
Six fault-free cells cover {naimi, suzuki, martin} x {flat, composition}
(composition cells run the algorithm at both levels) and a seventh runs
naimi, suzuki and martin on a three-level tree, each at a scope tuned so
the sleep-set reduction demonstrably prunes >= 10x of the naive schedule
enumeration while staying within a few seconds of wall clock.  One crash
cell exercises the crash-stop + recovery path (flat naimi, crashing the
initial token holder at every possible point of the schedule).

What each cell visits is pinned absolutely: the ``EXPLORED`` table of
``tests/analysis/test_explore.py`` holds the ``(states, transitions,
state_fingerprint)`` of all eight cells.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from ...experiments.config import ExperimentConfig
from .explorer import ExploreReport, explore
from .world import ExploreScope

__all__ = ["MatrixReport", "default_cells", "run_matrix"]

#: Scopes chosen so every fault-free cell is exhaustive in seconds with
#: a reduction ratio >= 10 (measured; see docs/analysis.md).  The
#: three-requester workload keeps the interleaving width meaningful
#: without the factorial blow-up of a fourth concurrent requester.
_THREE = (1, 2, 4)


def default_cells() -> List[ExploreScope]:
    """The default model-checking matrix."""
    # a composition of two clusters of two applications unless a cell
    # says otherwise
    two = ExperimentConfig(
        platform="two-tier", n_clusters=2, apps_per_cluster=2, n_cs=1
    )
    flat = two.with_(system="flat")
    return [
        ExploreScope(flat.with_(intra="naimi", n_cs=2), requesters=_THREE),
        ExploreScope(flat.with_(intra="suzuki"), requesters=_THREE),
        ExploreScope(flat.with_(intra="martin")),
        ExploreScope(two.with_(intra="naimi", inter="naimi", n_cs=2), requesters=_THREE),
        ExploreScope(two.with_(intra="suzuki", inter="suzuki"), requesters=_THREE),
        ExploreScope(two.with_(intra="martin", inter="martin"), requesters=_THREE),
        ExploreScope(
            ExperimentConfig(
                intra="naimi", middle=("suzuki",), inter="martin",
                hierarchy=((0, 1), (2,)), platform="two-tier",
                n_clusters=3, apps_per_cluster=1, n_cs=1,
            )
        ),
        ExploreScope(flat.with_(intra="naimi", apps_per_cluster=1), crash_node=1),
    ]


@dataclasses.dataclass
class MatrixReport:
    #: one exploration per cell, in matrix order
    cells: List[ExploreReport]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def violations(self) -> int:
        return sum(len(cell.violations) for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cells": [cell.to_dict() for cell in self.cells],
        }


def run_matrix(
    cells: Optional[Sequence[ExploreScope]] = None,
    *,
    reduce: bool = True,
    max_states: int = 250_000,
    max_transitions: int = 2_000_000,
    wall_budget_s: Optional[float] = None,
) -> MatrixReport:
    """Explore every cell.

    ``wall_budget_s`` bounds each individual exploration; a cell that
    exhausts it reports ``complete=False`` (and therefore fails).
    """
    if cells is None:
        cells = default_cells()
    return MatrixReport(cells=[
        explore(
            scope,
            reduce=reduce,
            max_states=max_states,
            max_transitions=max_transitions,
            wall_budget_s=wall_budget_s,
        )
        for scope in cells
    ])
