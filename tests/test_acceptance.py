"""Executable acceptance criteria, one test per criterion.

Each test runs its criterion at the stated scale and tolerance, prints one
PASS/FAIL line with the measured values, enforces the stated runtime budget,
and asserts the criterion outcome.  Criteria 8 and 9 are implemented exactly
as stated; their band sub-checks compare finite-horizon estimates against
bands that independent oracles place out of reach (criterion 8: a Gaussian
proxy with the spot variance held fixed, and the exact Heston tail of
``mdpbench/oracles.heston_tail``, which the engine matches; criterion 9: a
saddlepoint on the exact cumulant function), so their honest outcome is a
failure of the band part while the trend part holds.  The analysis is
recorded in the result notes and in the "Known status" section of the README.
"""

import time

import pytest

from mdpvol import acceptance
from mdpvol.config import DEFAULT_SEED


def _run(criterion, budget_s, *args):
    start = time.monotonic()
    result = criterion(*args)
    elapsed = time.monotonic() - start
    print(f"\n{result.line()}  ({elapsed:.2f} s)")
    for key, value in result.details.items():
        print(f"    {key}: {value}")
    assert elapsed < budget_s, f"runtime {elapsed:.1f} s exceeds budget {budget_s} s"
    return result


def test_criterion_01_large_time_q_quadrature_vs_closed_form():
    result = _run(acceptance.criterion_01_large_time_q, 1.0, DEFAULT_SEED)
    assert result.details["max_relative_error"] <= 1e-6
    assert result.passed


def test_criterion_02_curvature_identity_log_price():
    result = _run(acceptance.criterion_02_curvature_logprice, 1.0)
    assert result.details["passing_variant"] == "standard"
    assert result.passed


def test_criterion_03_curvature_identity_realized_variance():
    result = _run(acceptance.criterion_03_curvature_rv, 1.0)
    assert result.details["identity_error"] <= 1e-6
    assert result.details["error_vs_160"] <= 1e-3
    assert result.passed


def test_criterion_04_fenchel_legendre_duality():
    result = _run(acceptance.criterion_04_fenchel_duality, 1.0)
    assert result.details["max_abs_error"] <= 1e-6
    assert result.passed


def test_criterion_05_poisson_solver_oracle():
    result = _run(acceptance.criterion_05_poisson_oracle, 5.0)
    assert result.details["uprime_error_linear"] <= 1e-4
    assert result.details["uprime_error_phi"] <= 1e-4
    assert result.details["generator_residual"] <= 1e-5
    assert result.passed


def test_criterion_06_variational_oracle():
    result = _run(acceptance.criterion_06_variational_oracle, 5.0, DEFAULT_SEED)
    assert result.details["endpoint_errors"]["4096"] <= 1e-8
    assert result.details["contraction_slope_error"] <= 1e-6
    assert result.passed


def test_criterion_07_exact_gaussian_mc_oracle():
    result = _run(acceptance.criterion_07_gaussian_mc, 60.0, DEFAULT_SEED)
    assert result.details["covered"] >= 18
    assert result.passed


@pytest.mark.slow
def test_criterion_08_small_time_mdp_trend():
    result = _run(acceptance.criterion_08_smalltime_trend, 600.0, DEFAULT_SEED)
    assert result.details["monotone_toward_target"]
    assert result.passed, (
        "band sub-check failed as predicted by the Gaussian proxy with the "
        "spot variance held fixed "
        f"({result.details['gaussian_oracle_final']:.4f} vs band "
        f"{result.details['band']}); see \"Known status\" in README.md")


@pytest.mark.slow
def test_criterion_09_realized_variance_mdp_trend():
    result = _run(acceptance.criterion_09_rv_trend, 600.0, DEFAULT_SEED)
    assert result.details["monotone_toward_target"]
    assert result.passed, (
        "band sub-check failed as predicted by the saddlepoint oracle "
        f"({result.details['saddlepoint_oracle_final']:.4f} vs band "
        f"{result.details['band']}); see \"Known status\" in README.md")


def test_criterion_10_stationarity():
    result = _run(acceptance.criterion_10_stationarity, 1.0)
    assert result.details["max_abs"] <= 1e-6
    assert result.passed


def test_criterion_11_assumption_checker_fixtures():
    result = _run(acceptance.criterion_11_assumption_fixtures, 1.0)
    assert result.details["cir_branch_passes"]
    assert result.details["generic_branch_fails"]
    assert result.details["equivalence_exact"]
    assert result.passed


def test_criterion_12_determinism():
    result = _run(acceptance.criterion_12_determinism, 120.0, DEFAULT_SEED)
    assert result.details["mismatches"] == []
    assert result.passed


def test_curvature_criterion_is_sensitive_to_corrupted_q():
    # deliberately corrupting the variance constant by 10% must break the
    # curvature identity, otherwise the criterion has no power
    from mdpvol import LdpHestonParams, curvature, heston_lambda_star

    result = acceptance.criterion_02_curvature_logprice()
    q = heston_large_time_q()
    params = LdpHestonParams(2.0, 0.1, 0.5, -0.5, d_variant="standard")
    curv = curvature(lambda x: heston_lambda_star(params, x), -0.05)
    assert abs(curv * q - 1.0) <= 1e-3
    assert abs(curv * (1.1 * q) - 1.0) > 1e-3
    assert result.passed


def heston_large_time_q() -> float:
    from mdpvol import heston_large_time_params, make_heston

    return heston_large_time_params(make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)).q
