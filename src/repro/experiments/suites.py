"""One-shot reproduction suite.

``reproduce_all(out_dir, scale)`` regenerates every figure of the
paper's evaluation at the given scale and writes, per figure, a text
table (what the benchmarks print), a long-format CSV and a JSON
document — plus a ``summary.json`` with scale metadata.  Exposed on the
CLI as ``repro-mutex reproduce``.  Repeating a reproduction into the
same directory rewrites only ``summary.json`` and the artefacts whose
bytes changed.

With a cache (``cache="auto"`` honours ``REPRO_CACHE=1``; the CLI's
``--cache`` flags pass one explicitly), every (config, seed) cell
already present in the experiment cache streams instead of re-running,
and the cache counters land in ``summary.json`` under ``"cache"``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Optional

from ..cache.store import ExperimentCache, resolve_cache, write_atomic
from .figures import ALL_FIGURES, FigureData, FigureScale, scale_from_env
from .export import figure_to_csv, figure_to_json

__all__ = ["reproduce_all"]


def _write_if_changed(path: str, text: str, mode: int) -> None:
    """Publish ``text`` at ``path`` with permissions ``mode``, unless
    ``path`` already holds exactly these bytes.

    Runs are deterministic, so a repeated reproduction renders every
    figure artefact byte for byte as before, and is left alone.  A
    changed file is unlinked and a fresh one linked into its place: on
    ext4 both a truncating rewrite and a rename over an existing file
    are flushed to disk on close, so rewriting would make a warm-cache
    call, which does little else, wait on the disk for nothing.
    """
    data = text.encode("utf-8")
    try:
        with open(path, "rb") as fh:
            if fh.read() == data:
                return
        os.unlink(path)
    except FileNotFoundError:
        pass
    if write_atomic(path, data, exclusive=True):
        os.chmod(path, mode)


def reproduce_all(
    out_dir: str | Path,
    scale: Optional[FigureScale] = None,
    figures: Optional[list[str]] = None,
    cache: "ExperimentCache | str | None" = "auto",
) -> Dict[str, FigureData]:
    """Regenerate figures and write their artefacts under ``out_dir``.

    Returns the generated :class:`FigureData` by figure id.  ``figures``
    restricts the set (default: all six).  ``cache`` follows the sweep
    convention: ``"auto"`` (environment-controlled), an explicit
    :class:`~repro.cache.ExperimentCache`, or ``None`` for no caching.
    A figure artefact that already holds the bytes about to be written
    is left alone (its mtime too); ``summary.json`` carries this call's
    timings and cache counters.
    """
    if scale is None:
        scale = scale_from_env()
    wanted = figures if figures is not None else sorted(ALL_FIGURES)
    unknown = [f for f in wanted if f not in ALL_FIGURES]
    if unknown:
        raise KeyError(f"unknown figures: {unknown}")
    store = resolve_cache(cache)
    out = os.fspath(out_dir) or os.curdir  # as Path("") is "."
    os.makedirs(out, exist_ok=True)
    # Artefacts get the mode open() would give them; the umask can only
    # be read by setting it.
    umask = os.umask(0o022)
    os.umask(umask)
    mode = 0o666 & ~umask

    results: Dict[str, FigureData] = {}
    timings: Dict[str, float] = {}
    for figure_id in wanted:
        # Wall-clock here times the *generation* of a figure for the run
        # summary; no simulated behaviour depends on it.
        started = time.perf_counter()  # repro: allow[RPR001] host-side telemetry
        data = ALL_FIGURES[figure_id](scale, cache=store)
        timings[figure_id] = time.perf_counter() - started  # repro: allow[RPR001] host-side telemetry
        results[figure_id] = data
        base = os.path.join(out, figure_id)
        _write_if_changed(base + ".txt", data.to_table() + "\n", mode)
        _write_if_changed(base + ".csv", figure_to_csv(data), mode)
        _write_if_changed(base + ".json", figure_to_json(data) + "\n", mode)

    summary = {
        "figures": wanted,
        "scale": {
            "n_clusters": scale.n_clusters,
            "apps_per_cluster": scale.apps_per_cluster,
            "n_apps": scale.n_apps,
            "n_cs": scale.n_cs,
            "seeds": list(scale.seeds),
            "rho_over_n": list(scale.rho_over_n),
        },
        "wall_seconds": timings,
    }
    if store is not None:
        summary["cache"] = {
            "dir": str(store.root),
            "fingerprint": store.fingerprint,
            "hits": store.stats.hits,
            "misses": store.stats.misses,
            "stores": store.stats.stores,
            "evictions": store.stats.evictions,
            "corrupt": store.stats.corrupt,
            "verified": store.stats.verified,
            "verify_failures": store.stats.verify_failures,
        }
    _write_if_changed(
        os.path.join(out, "summary.json"),
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
        mode,
    )
    return results
