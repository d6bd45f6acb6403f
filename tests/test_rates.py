import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdpvol import (INFINITE_RATE, DiscretePath, DomainError,
                    GridMismatchError, contract_two_to_one, endpoint_rate,
                    family, gamma_invariant, heston_large_time_params,
                    large_time_params, make_heston, make_stein_stein,
                    minimize_endpoint, qbar_integrated, small_time_rate_1d,
                    small_time_rate_2d, solve_poisson_cev)

Q_REF = 0.1140625  # theta (1 + xi^2/(4 kappa^2) - rho xi / kappa) at the reference set


def line_path(slope, horizon=1.0, n=128):
    times = np.linspace(0.0, horizon, n + 1)
    return DiscretePath(times, slope * times)


def random_smooth_path(rng, horizon=1.0, n=256, scale=0.1):
    times = np.linspace(0.0, horizon, n + 1)
    coefs = rng.standard_normal(5)
    values = sum(c * np.sin((j + 1) * np.pi * times / (2 * horizon))
                 for j, c in enumerate(coefs))
    return DiscretePath(times, scale * (values - values[0]))


class TestSmallTimeRates:
    def test_zero_paths(self):
        zero = line_path(0.0)
        assert small_time_rate_2d(0.3, 0.5, 0.0, zero, zero) == 0.0
        assert small_time_rate_1d(0.3, zero) == 0.0

    def test_uncorrelated_line(self):
        sigma0 = 0.4
        phi = line_path(sigma0)
        psi = line_path(0.0)
        assert small_time_rate_2d(sigma0, 1.0, 0.0, phi, psi) == pytest.approx(0.5, rel=1e-12)

    def test_nonzero_start_is_infinite(self):
        times = np.linspace(0, 1, 65)
        phi = DiscretePath(times, 1.0 + 0.0 * times)
        psi = line_path(0.0, n=64)
        assert small_time_rate_2d(0.3, 0.5, 0.0, phi, psi) == INFINITE_RATE
        assert math.isinf(small_time_rate_1d(0.3, phi))

    def test_heston_smalltime_value(self):
        # sigma0^2 = y0 = 0.1, phi_t = 0.3 t on [0, 1]
        phi = line_path(0.3)
        assert small_time_rate_1d(math.sqrt(0.1), phi) == pytest.approx(0.45, rel=1e-12)

    def test_grid_mismatch(self):
        phi = line_path(1.0, n=64)
        psi = line_path(1.0, n=128)
        with pytest.raises(GridMismatchError):
            small_time_rate_2d(0.3, 0.5, 0.0, phi, psi)

    @pytest.mark.parametrize("bad", [dict(sigma0=0.0), dict(g0=0.0), dict(rho=1.0)])
    def test_parameter_domain(self, bad):
        kwargs = dict(sigma0=0.3, g0=0.5, rho=0.0)
        kwargs.update(bad)
        with pytest.raises(DomainError):
            small_time_rate_2d(kwargs["sigma0"], kwargs["g0"], kwargs["rho"],
                               line_path(1.0), line_path(0.0))


class TestLargeTimeParams:
    def test_reference_q(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        lt = heston_large_time_params(model)
        assert lt.alpha == 0.0
        assert lt.q == pytest.approx(0.1140625, rel=1e-6)
        assert lt.q_closed_form == pytest.approx(0.1140625, rel=1e-15)

    def test_alpha_scales_with_zeta(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        lt = heston_large_time_params(model, zeta=1.0)
        assert lt.alpha == pytest.approx(-0.05, abs=1e-9)

    def test_q_positive_over_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            kappa = rng.uniform(0.5, 5)
            theta = rng.uniform(0.01, 1)
            xi = rng.uniform(0.1, 1)
            rho = rng.uniform(-0.9, 0.9)
            model = make_heston(kappa, theta, xi, rho, 0.0, theta)
            assert heston_large_time_params(model).q > 0

    def test_quadrature_matches_closed_form_with_cev_phi(self):
        # same constants via the numeric speed-measure Poisson route
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        measure = gamma_invariant(2, 0.1, 0.5)
        phi = solve_poisson_cev(lambda y: 0.5 * y, measure, q_h=1.0)
        lt = large_time_params(model, measure, phi, 0.0)
        assert lt.q == pytest.approx(0.1140625, rel=1e-6)


class TestQbar:
    def test_reference_value(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        measure = gamma_invariant(2, 0.1, 0.5)
        sol = solve_poisson_cev(lambda y: y, measure, q_h=1.0)
        qbar = qbar_integrated(model, measure, sol, 1.0)
        assert qbar.value == pytest.approx(0.00625, rel=1e-6)
        assert not qbar.degenerate

    def test_gamma_scaling(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        measure = gamma_invariant(2, 0.1, 0.5)
        sol = solve_poisson_cev(lambda y: y, measure, q_h=1.0)
        one = qbar_integrated(model, measure, sol, 1.0).value
        two = qbar_integrated(model, measure, sol, 2.0).value
        assert two == pytest.approx(one / 4, rel=1e-12)

    def test_constant_functional_degenerate(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        measure = gamma_invariant(2, 0.1, 0.5)
        sol = solve_poisson_cev(lambda y: np.full_like(np.asarray(y, float), 2.0),
                                measure, q_h=0.0)
        qbar = qbar_integrated(model, measure, sol, 1.0)
        assert qbar.degenerate
        assert qbar.value == pytest.approx(0.0, abs=1e-14)


class TestMinimizeEndpoint:
    def test_reference_value(self):
        value, _ = minimize_endpoint(Q_REF, 0.0, 0.1, 1.0, 4096)
        assert value == pytest.approx(0.01 / (2 * Q_REF), abs=1e-10)

    def test_zero_control_when_target_on_drift(self):
        value, path = minimize_endpoint(0.2, 0.3, 0.3 * 2.0, 2.0, 64)
        assert value == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(path.values, 0.3 * path.times, atol=1e-12)

    def test_straight_line_minimizer(self):
        _, path = minimize_endpoint(Q_REF, 0.0, 0.1, 1.0, 256)
        affine = 0.1 * path.times
        assert np.max(np.abs(path.values - affine)) <= 1e-8

    def test_grid_refinement_order(self):
        closed = endpoint_rate(Q_REF, 0.1)
        for n in (64, 128, 256, 512):
            value, _ = minimize_endpoint(Q_REF, 0.0, 0.1, 1.0, n)
            assert abs(value - closed) <= 1.0 / n ** 2

    def test_realized_variance_rate(self):
        value, _ = minimize_endpoint(0.00625, 0.0, 0.05, 1.0, 2048)
        assert value == pytest.approx(0.2, rel=1e-10)

    def test_scaling_covariance(self):
        base, _ = minimize_endpoint(Q_REF, 0.0, 0.1, 1.0, 512)
        for c in (0.5, 2.0, 7.0):
            scaled, _ = minimize_endpoint(c * Q_REF, 0.0, 0.1, 1.0, 512)
            assert scaled == pytest.approx(base / c, rel=1e-10)

    @given(c=st.floats(1e-3, 1e3))
    def test_scaling_covariance_closed_form(self, c):
        assert endpoint_rate(c * Q_REF, 0.1) == pytest.approx(
            endpoint_rate(Q_REF, 0.1) / c, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            minimize_endpoint(0.0, 0.0, 0.1, 1.0, 16)
        with pytest.raises(DomainError):
            minimize_endpoint(1.0, 0.0, 0.1, 1.0, 1)


class TestContraction:
    def test_uncorrelated_gives_zero_minimizer(self):
        rng = np.random.default_rng(3)
        phi = random_smooth_path(rng)
        _, psi = contract_two_to_one(0.3, 0.5, 0.0, phi)
        assert np.max(np.abs(psi.values)) <= 1e-12

    def test_el_slope(self):
        phi = line_path(1.0, n=512)
        _, psi = contract_two_to_one(1.0, 1.0, 0.5, phi)
        np.testing.assert_allclose(psi.values, 0.5 * psi.times, atol=1e-8)

    def test_minimum_matches_one_component(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            phi = random_smooth_path(rng)
            sigma0 = rng.uniform(0.2, 1.5)
            g0 = rng.uniform(0.2, 1.5)
            rho = rng.uniform(-0.9, 0.9)
            minimum, _ = contract_two_to_one(sigma0, g0, rho, phi)
            direct = small_time_rate_1d(sigma0, phi)
            assert abs(minimum - direct) <= 1e-6 * (1 + direct)


class TestShareMeasure:
    def test_heston_tilt(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        tilted = family(model).share_measure()
        assert tilted.params["kappa"] == pytest.approx(2.25)
        assert tilted.params["theta"] == pytest.approx(0.2 / 2.25)
        assert tilted.x_drift_coeff == 0.5

    def test_uncorrelated_keeps_factor_drift(self):
        model = make_heston(2, 0.1, 0.5, 0.0, 0.0, 0.1)
        tilted = family(model).share_measure()
        assert tilted.params["kappa"] == pytest.approx(2.0)
        assert tilted.params["theta"] == pytest.approx(0.1)
        assert tilted.x_drift_coeff == 0.5

    def test_non_mean_reverting_tilt_rejected(self):
        model = make_heston(2, 0.1, 4.0, 1.0, 0.0, 0.1)
        with pytest.raises(DomainError):
            family(model).share_measure()

    def test_stein_stein_non_mean_reverting_tilt_rejected(self):
        model = make_stein_stein(0.0, -0.1, 0.3, 0.5, 0.0, 0.1)  # b + rho c = 0.05
        with pytest.raises(DomainError, match="b \\+ rho c = 0.05 must be negative"):
            family(model).share_measure()

    def test_tilted_drift_matches_f_plus_rho_g_sigma(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        tilted = family(model).share_measure()
        y = np.linspace(0.0, 2.0, 41)
        sigma, f, g = model.coefficients(y)
        np.testing.assert_allclose(tilted.coefficients(y)[1], f + model.rho * g * sigma,
                                   atol=1e-14)

    def test_share_q_closed_form(self):
        from mdpvol import share_large_time_params

        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        lt = share_large_time_params(model)
        kq, tq = 2.25, 0.2 / 2.25
        closed = tq * (1 + 0.25 / (4 * kq ** 2) + (-0.5) * 0.5 / kq)
        assert lt.q_closed_form == pytest.approx(closed, rel=1e-14)
        assert lt.q == pytest.approx(closed, rel=1e-6)
