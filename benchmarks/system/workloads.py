"""The five workloads, and the check every result goes through.

All end-to-end workloads drive only ``run_experiment`` / ``reproduce_all``
with the library's default execution knobs -- what ``repro-mutex`` gives
a user today -- so a later change that makes a faster path the default
shows up here and one that only tunes an opt-in mode does not.

A *pass* is the timed unit; it is one or more *calls* (``reproduce_warm``
makes 20 so a pass is long enough to time), and a call delivers a list of
``ExperimentResult`` in a fixed config order.  One result is one
operation for the failure count.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import List, Optional, Sequence

from spec import WORKLOADS, expect_key

from repro.cache import ExperimentCache
from repro.experiments import (
    ExperimentConfig,
    FigureScale,
    clear_sweep_memo,
    reproduce_all,
    run_experiment,
)
from repro.experiments.figures import inter_sweep, intra_sweep, sweep_configs
from repro.experiments.parallel import shutdown_warm_pool, warm_pool

__all__ = [
    "WARM_CALLS",
    "open_session",
    "fingerprint",
    "check_call",
    "load_expected",
]

#: ``reproduce_all`` calls in one ``reproduce_warm`` pass.
WARM_CALLS = 20


def _single_config(name: str, seed: int, smoke: bool) -> ExperimentConfig:
    if name == "fig4_single":
        apps, n_cs = (4, 10) if smoke else (20, 100)
        return ExperimentConfig(
            system="composition", intra="naimi", inter="naimi",
            platform="grid5000", n_clusters=9, apps_per_cluster=apps,
            n_cs=n_cs, rho=float(9 * apps), seed=seed,
        )
    if name == "suzuki_flat":
        apps, n_cs = (3, 8) if smoke else (8, 50)
        return ExperimentConfig(
            system="flat", intra="suzuki", platform="grid5000", n_clusters=9,
            apps_per_cluster=apps, n_cs=n_cs, rho=float(9 * apps), seed=seed,
        )
    if name == "twotier_5k":
        # Smoke stays above LARGE_GRID_NODES so the same code paths
        # (batched delivery, bounded collector) are the ones smoke-tested.
        clusters, n_cs = (11, 1) if smoke else (50, 3)
        return ExperimentConfig(
            system="composition", intra="naimi", inter="naimi",
            platform="two-tier", n_clusters=clusters, apps_per_cluster=99,
            n_cs=n_cs, rho=float(clusters * 99), seed=seed,
        )
    raise KeyError(name)


def reproduce_scale(seed: int, smoke: bool) -> FigureScale:
    if smoke:
        return FigureScale(apps_per_cluster=2, n_cs=4, seeds=(seed, seed + 1))
    return FigureScale(apps_per_cluster=4, n_cs=20, seeds=(seed, seed + 1))


class _SingleSession:
    """One ``run_experiment(config, cache=None)`` per pass."""

    calls_per_pass = 1
    is_sweep = False

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.configs = [_single_config(name, seed, smoke)]

    def warm_up(self) -> None:
        run_experiment(self.configs[0], cache=None)

    def run_pass(self) -> List[list]:
        return [[run_experiment(self.configs[0], cache=None)]]

    def after_pass(self) -> None:
        pass

    def close(self) -> None:
        pass


class _ReproduceSession:
    """``reproduce_all`` of all six figures; cold or warm cache."""

    is_sweep = True

    def __init__(self, seed: int, smoke: bool, workdir: Path, warm: bool) -> None:
        self.scale = reproduce_scale(seed, smoke)
        self.configs = (
            sweep_configs("inter", self.scale) + sweep_configs("intra", self.scale)
        )
        self.warm = warm
        self.calls_per_pass = (2 if smoke else WARM_CALLS) if warm else 1
        self.workdir = workdir
        self.out_dir = workdir / "figures"
        self.warm_cache = ExperimentCache(cache_dir=workdir / "cache_warm")
        self._fresh = 0

    def collect(self, cache, inter: bool = True) -> list:
        """The results of the sweeps just run, in ``self.configs`` order.
        They are memoised, so these lookups re-run nothing."""
        sweeps = [intra_sweep(self.scale, cache=cache)]
        if inter:
            sweeps.insert(0, inter_sweep(self.scale, cache=cache))
        return [run for sweep in sweeps for agg in sweep.values() for run in agg.runs]

    def _call(self, cache: ExperimentCache, figures: Optional[list] = None) -> list:
        clear_sweep_memo()
        reproduce_all(self.out_dir, self.scale, figures=figures, cache=cache)
        return self.collect(cache, inter=figures is None)

    def pass_cache(self) -> ExperimentCache:
        """The cache a pass runs against: the filled one, or a new empty
        one (removed again by ``after_pass``)."""
        if self.warm:
            return self.warm_cache
        self._fresh += 1
        return ExperimentCache(cache_dir=self.workdir / f"cache_cold_{self._fresh}")

    def warm_up(self) -> None:
        if self.warm:
            self._call(self.warm_cache)  # fills the cache the passes read
        else:
            # Spawns the pool and runs all three algorithms through the
            # workers, the cache write path and export at under half a
            # pass's cost (the intra sweep alone: 36 of the 84 configs).
            self._call(self.pass_cache(), figures=["fig6a", "fig6b"])

    def run_pass(self) -> List[list]:
        return [self._call(self.pass_cache()) for _ in range(self.calls_per_pass)]

    def after_pass(self) -> None:
        for path in self.workdir.glob("cache_cold_*"):
            shutil.rmtree(path, ignore_errors=True)

    def close(self) -> None:
        # shutdown_warm_pool() does not wait; join the workers first so
        # they are reaped (RUSAGE_CHILDREN sees them) before we report.
        warm_pool().shutdown(wait=True)
        shutdown_warm_pool()
        clear_sweep_memo()


def open_session(name: str, seed: int, smoke: bool, workdir: Path):
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if name.startswith("reproduce_"):
        return _ReproduceSession(seed, smoke, workdir, warm=name == "reproduce_warm")
    return _SingleSession(name, seed, smoke)


# --------------------------------------------------------------------- #
# correctness
# --------------------------------------------------------------------- #
def fingerprint(result) -> str:
    """SHA-256 over the simulated statistics of one ``ExperimentResult``.

    Only public fields, floats by ``repr``: a change that is meant only
    to make the simulator faster must leave every one of these identical.
    """
    stats = result.obtaining
    rendering = json.dumps([
        result.name,
        result.cs_count,
        result.total_messages,
        result.inter_cluster_messages,
        result.intra_cluster_messages,
        result.total_bytes,
        result.inter_cluster_bytes,
        repr(result.sim_time_ms),
        repr(stats.mean),
        repr(stats.std),
        sorted((ci, s.count) for ci, s in result.per_cluster.items()),
    ])
    return hashlib.sha256(rendering.encode()).hexdigest()


def check_call(
    configs: Sequence[ExperimentConfig],
    results: Sequence,
    reference: Optional[Sequence[str]],
) -> List[str]:
    """Problems with one call's results (one entry per failed operation).

    ``reference`` holds the fingerprint each result must have: the pinned
    values for a pinned seed, the first call's own for any other seed
    (``None``, or a ``None`` entry, where there is nothing to compare to
    yet).  Safety violations and unfinished processes never get this far:
    the library raises, and the caller counts the whole call as failed.
    """
    if len(results) != len(configs):
        return [
            f"call delivered {len(results)} results for {len(configs)} configs"
        ] * len(configs)
    problems: List[str] = []
    for i, (config, result) in enumerate(zip(configs, results)):
        expected_cs = config.n_apps * config.n_cs
        if result.config != config:
            problems.append(f"result {i} is for another config")
        elif result.cs_count != expected_cs:
            problems.append(
                f"result {i}: {result.cs_count} CS completed, expected {expected_cs}"
            )
        elif reference and reference[i] and fingerprint(result) != reference[i]:
            problems.append(f"result {i}: simulated statistics differ from reference")
    return problems


def load_expected(name: str, seed: int) -> Optional[dict]:
    """Pinned expectations for ``(workload, seed)``, or ``None``."""
    path = Path(__file__).with_name("expected.json")
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(expect_key(name), {}).get(str(seed))
