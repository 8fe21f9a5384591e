"""Acceptance criteria on the fig4 composition scenario.

Two properties the issue pins:

* every CS entry's critical-path segments sum **exactly** (rational
  arithmetic, not approximately) to its measured obtaining time;
* the per-segment locality split flips from LAN-dominated to
  WAN-dominated as ρ crosses the paper's regime boundary (ρ/N ≈ 1):
  under high load a requester mostly waits on same-cluster holders
  draining (LAN side), under low load it mostly waits for the token to
  be fetched across the WAN.
"""

from fractions import Fraction

import pytest

from repro.experiments import ExperimentConfig, ExperimentRun, run_experiment


def fig4_config(**overrides) -> ExperimentConfig:
    """A scaled-down Fig. 4 composition (the ``fig4_single`` workload of
    benchmarks/system at 9x6 processes, 15 CS), with the obs layer on."""
    base = dict(
        system="composition",
        intra="naimi",
        inter="naimi",
        platform="grid5000",
        n_clusters=9,
        apps_per_cluster=6,
        n_cs=15,
        rho=float(9 * 6),
        seed=1,
        obs="paths",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_every_cs_entry_decomposes_exactly():
    """Exactness for *every* CS entry, checked path by path in Fractions
    (the float-world equivalent of integer flow-clock equality)."""
    with ExperimentRun(fig4_config()) as run:
        result = run.execute()
        paths = run.obs.paths()
    assert len(paths) == result.cs_count == 9 * 6 * 15
    for path in paths:
        assert path.exact_total() == (
            Fraction(path.granted_at) - Fraction(path.requested_at)
        ), f"inexact decomposition for node {path.node} at {path.requested_at}"
    assert result.obs_report is not None and result.obs_report.exact


@pytest.mark.parametrize(
    "rho_over_n, expect_wan",
    [(0.1, False), (10.0, True)],
    ids=["high-load-LAN", "low-load-WAN"],
)
def test_locality_split_flips_across_regime_boundary(rho_over_n, expect_wan):
    n_apps = 9 * 6
    result = run_experiment(fig4_config(rho=rho_over_n * n_apps))
    report = result.obs_report
    assert report is not None and report.exact
    assert report.wan_dominated is expect_wan, (
        f"rho/N={rho_over_n}: LAN {report.lan_ms:.1f} ms vs "
        f"WAN {report.wan_ms:.1f} ms"
    )


def test_segment_totals_balance_obtaining_sum():
    """The aggregate category totals also balance: their sum equals the
    collector's total obtaining time (same trace events, same clock)."""
    result = run_experiment(fig4_config())
    report = result.obs_report
    total = sum(report.category_ms.values())
    assert total == pytest.approx(report.obtaining_total_ms, abs=1e-6)
    assert report.lan_ms + report.wan_ms == pytest.approx(
        report.obtaining_total_ms, abs=1e-6
    )
    # And the report's total matches the metrics collector's view.
    collector_total = result.obtaining.mean * result.cs_count
    assert report.obtaining_total_ms == pytest.approx(
        collector_total, rel=1e-9
    )
