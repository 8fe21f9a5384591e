"""Unit tests for the α/β/ρ behaviour model."""

import pytest

from repro.errors import ConfigurationError
from repro.workload import (
    PAPER_ALPHA_MS,
    PAPER_CS_PER_PROCESS,
    PAPER_RHO_OVER_N_GRID,
    ParallelismLevel,
    beta_for_rho,
    classify_rho,
)


def test_paper_constants():
    assert PAPER_ALPHA_MS == 10.0
    assert PAPER_CS_PER_PROCESS == 100
    assert 0.5 in PAPER_RHO_OVER_N_GRID and 6.0 in PAPER_RHO_OVER_N_GRID


def test_classification_boundaries():
    n = 180
    assert classify_rho(90, n) is ParallelismLevel.LOW
    assert classify_rho(180, n) is ParallelismLevel.LOW       # rho <= N
    assert classify_rho(181, n) is ParallelismLevel.INTERMEDIATE
    assert classify_rho(540, n) is ParallelismLevel.INTERMEDIATE  # rho <= 3N
    assert classify_rho(541, n) is ParallelismLevel.HIGH
    assert classify_rho(5000, n) is ParallelismLevel.HIGH


def test_classification_validation():
    with pytest.raises(ConfigurationError):
        classify_rho(0, 10)
    with pytest.raises(ConfigurationError):
        classify_rho(1.0, 0)


def test_beta_for_rho():
    assert beta_for_rho(180.0, 10.0) == 1800.0
    assert beta_for_rho(0.5, 10.0) == 5.0
    with pytest.raises(ConfigurationError):
        beta_for_rho(-1.0, 10.0)
    with pytest.raises(ConfigurationError):
        beta_for_rho(1.0, 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_rho_and_alpha_are_refused(bad):
    # NaN used to pass every comparison-based check: beta_for_rho
    # returned nan or inf and classify_rho(nan) said HIGH.
    with pytest.raises(ConfigurationError, match=rf"rho .*got {bad}"):
        beta_for_rho(bad, 10.0)
    with pytest.raises(ConfigurationError, match=rf"alpha_ms .*got {bad}"):
        beta_for_rho(1.0, bad)
    with pytest.raises(ConfigurationError, match=rf"rho .*got {bad}"):
        classify_rho(bad, 10)


def test_grid_covers_all_three_levels():
    n = 100
    levels = {classify_rho(x * n, n) for x in PAPER_RHO_OVER_N_GRID}
    assert levels == set(ParallelismLevel)
