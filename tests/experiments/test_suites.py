"""Unit tests for the reproduce-all suite runner."""

import json
import os

import pytest

from repro.cache import ExperimentCache
from repro.experiments import FigureScale, clear_sweep_memo
from repro.experiments.figures import intra_sweep
from repro.experiments.suites import reproduce_all

TINY = FigureScale(apps_per_cluster=1, n_cs=2, seeds=(0,),
                   rho_over_n=(0.5, 4.0), n_clusters=2)


def test_reproduce_all_writes_artefacts(tmp_path):
    results = reproduce_all(tmp_path, scale=TINY, figures=["fig4a", "fig4b"])
    assert set(results) == {"fig4a", "fig4b"}
    for figure_id in ("fig4a", "fig4b"):
        assert (tmp_path / f"{figure_id}.txt").exists()
        assert (tmp_path / f"{figure_id}.csv").exists()
        doc = json.loads((tmp_path / f"{figure_id}.json").read_text())
        assert doc["figure_id"] == figure_id
        assert doc["xs"] == [0.5, 4.0]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["figures"] == ["fig4a", "fig4b"]
    assert summary["scale"]["n_apps"] == 2
    assert set(summary["wall_seconds"]) == {"fig4a", "fig4b"}


def test_reproduce_all_default_covers_all_figures(tmp_path):
    results = reproduce_all(tmp_path, scale=TINY)
    assert set(results) == {
        "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b"
    }
    assert len(list(tmp_path.glob("*.txt"))) == 6


def test_reproduce_all_rejects_unknown_figure(tmp_path):
    with pytest.raises(KeyError):
        reproduce_all(tmp_path, scale=TINY, figures=["fig99"])


def test_reproduce_all_creates_nested_directories(tmp_path):
    target = tmp_path / "a" / "b"
    reproduce_all(target, scale=TINY, figures=["fig6a"])
    assert (target / "fig6a.csv").exists()


def test_repeated_reproduction_rewrites_only_what_changed(tmp_path):
    reproduce_all(tmp_path, scale=TINY, figures=["fig6a"])
    artefacts = [tmp_path / f"fig6a.{ext}" for ext in ("txt", "csv", "json")]
    before = [path.read_bytes() for path in artefacts]
    for path in (*artefacts, tmp_path / "summary.json"):
        os.utime(path, ns=(1, 1))  # a sentinel mtime any write would replace
    artefacts[0].write_bytes(b"tampered\n")
    reproduce_all(tmp_path, scale=TINY, figures=["fig6a"])
    assert [path.read_bytes() for path in artefacts] == before
    assert [path.stat().st_mtime_ns == 1 for path in artefacts] == [False, True, True]
    assert (tmp_path / "summary.json").stat().st_mtime_ns != 1


def test_repeated_reproduction_never_rewrites_a_file_in_place(
    tmp_path, monkeypatch
):
    # On ext4 a truncating rewrite, or a rename over an existing file, is
    # flushed to disk on close: a changed file is unlinked and a fresh
    # one linked into its place instead.
    overwrites = []
    real_open, real_replace = open, os.replace

    def watching_open(file, mode="r", *args, **kwargs):
        if "w" in mode and os.path.exists(file):
            overwrites.append(("open", os.fspath(file)))
        return real_open(file, mode, *args, **kwargs)

    def watching_replace(src, dst, *args, **kwargs):
        if os.path.exists(dst):
            overwrites.append(("replace", os.fspath(dst)))
        return real_replace(src, dst, *args, **kwargs)

    umask = os.umask(0o027)
    try:
        reproduce_all(tmp_path, scale=TINY, figures=["fig6a"], cache=None)
        artefacts = [tmp_path / f"fig6a.{ext}" for ext in ("txt", "csv", "json")]
        before = [path.read_bytes() for path in artefacts]
        summary = tmp_path / "summary.json"
        first_summary = summary.read_bytes()
        artefacts[1].write_bytes(b"tampered\n")
        monkeypatch.setattr("builtins.open", watching_open)
        monkeypatch.setattr(os, "replace", watching_replace)
        reproduce_all(tmp_path, scale=TINY, figures=["fig6a"], cache=None)
    finally:
        os.umask(umask)
    assert overwrites == []
    assert [path.read_bytes() for path in artefacts] == before
    assert summary.read_bytes() != first_summary  # this call's timings
    # Published with the mode open() gives a new file, not mkstemp's 0600.
    for path in (*artefacts, summary):
        assert path.stat().st_mode & 0o777 == 0o640, path
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [p.name for p in artefacts] + ["summary.json"]
    )


def test_a_cached_reproduction_after_an_uncached_one_fills_its_cache(tmp_path):
    """The sweep memo is per cache: the uncached call's sweep is not
    handed to the cached one, which runs, stores and counts its cells —
    and a second sweep on that cache is the memo again."""
    scale = FigureScale(apps_per_cluster=1, n_cs=1, seeds=(0,),
                        rho_over_n=(1.0,), n_clusters=2)
    cache = ExperimentCache(cache_dir=tmp_path / "c")
    clear_sweep_memo()
    try:
        reproduce_all(tmp_path / "a", scale, figures=["fig6a"], cache=None)
        reproduce_all(tmp_path / "b", scale, figures=["fig6a"], cache=cache)
        intra_sweep(scale, cache=cache)
    finally:
        clear_sweep_memo()
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    counts = {k: summary["cache"][k] for k in ("hits", "misses", "stores")}
    assert counts == {"hits": 0, "misses": 3, "stores": 3}
    assert (cache.stats.misses, cache.stats.stores) == (3, 3)  # memo hit
    assert len(list((tmp_path / "c").rglob("*.pkl"))) == 3
