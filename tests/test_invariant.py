import numpy as np
import pytest

from mdpvol import (DomainError, GrowthError, UnsupportedModelError,
                    averaged_drift, averaged_state_path, gamma_invariant,
                    family, integrate, make_constant_sigma,
                    make_heston, make_lsv, speed_measure)
from mdpvol.models import GrowthExponents

REF = dict(kappa=2.0, theta=0.1, xi=0.5)


@pytest.fixture(scope="module")
def gamma_ref():
    return gamma_invariant(**REF)


class TestGammaInvariant:
    def test_shape_rate(self, gamma_ref):
        assert gamma_ref.shape == pytest.approx(1.6, rel=1e-15)
        assert gamma_ref.rate == pytest.approx(16.0, rel=1e-15)

    def test_mean_is_theta(self, gamma_ref):
        value, err = integrate(gamma_ref, lambda y: y)
        assert value == pytest.approx(0.1, abs=1e-8)

    def test_normalization(self, gamma_ref):
        value, err = integrate(gamma_ref, lambda y: np.ones_like(y))
        assert abs(value - 1.0) <= 1e-10

    def test_second_moment(self, gamma_ref):
        value, _ = integrate(gamma_ref, lambda y: y ** 2)
        assert value == pytest.approx(0.01625, abs=1e-8)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            gamma_invariant(2, 0.1, 0)
        with pytest.raises(DomainError):
            gamma_invariant(-2, 0.1, 0.5)

    @pytest.mark.parametrize("kappa, theta, xi", [
        (0.5, 0.01, 1.0),   # shape = 0.01, extreme concentration at zero
        (0.5, 0.05, 0.9),
        (5.0, 1.0, 0.1),    # shape = 1000, sharply peaked
    ])
    def test_normalization_extreme_shapes(self, kappa, theta, xi):
        measure = gamma_invariant(kappa, theta, xi)
        value, _ = integrate(measure, lambda y: np.ones_like(y))
        assert abs(value - 1.0) <= 1e-10
        mean, _ = integrate(measure, lambda y: y)
        assert mean == pytest.approx(theta, rel=1e-7)

    def test_growth_error(self, gamma_ref):
        with pytest.raises(GrowthError):
            integrate(gamma_ref, lambda y: np.exp(40 * y))


class TestSpeedMeasure:
    def test_matches_gamma_closed_form(self, gamma_ref):
        numeric = speed_measure(**REF, q_g=0.5)
        ys = np.linspace(1e-4, 2.0, 4001)
        gap = np.max(np.abs(numeric.density(ys) - gamma_ref.density(ys)))
        assert gap <= 1e-8

    def test_normalized(self):
        measure = speed_measure(**REF, q_g=0.75)
        value, _ = integrate(measure, lambda y: np.ones_like(y))
        assert abs(value - 1.0) <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError, match="q_g"):
            speed_measure(**REF, q_g=1.0)
        with pytest.raises(DomainError, match="q_g"):
            speed_measure(**REF, q_g=0.3)


class TestStationarity:
    @pytest.mark.parametrize("q_g", [0.5, 0.75])
    @pytest.mark.parametrize("name", ["y", "y2", "expm"])
    def test_generator_orthogonality(self, q_g, name):
        kappa, theta, xi = REF["kappa"], REF["theta"], REF["xi"]
        measure = speed_measure(kappa, theta, xi, q_g) if q_g != 0.5 \
            else gamma_invariant(kappa, theta, xi)
        first = {"y": lambda y: np.ones_like(y), "y2": lambda y: 2 * y,
                 "expm": lambda y: -np.exp(-y)}[name]
        second = {"y": lambda y: np.zeros_like(y), "y2": lambda y: 2 * np.ones_like(y),
                  "expm": lambda y: np.exp(-y)}[name]

        def generator_f(y):
            return (kappa * (theta - y) * first(y)
                    + 0.5 * (xi * y ** q_g) ** 2 * second(y))

        value, _ = integrate(measure, generator_f)
        assert abs(value) <= 1e-6


class TestAveragedDrift:
    def test_heston_constant(self, gamma_ref):
        model = make_heston(**REF, rho=-0.5, x0=0.0, y0=0.1)
        lam = averaged_drift(model, gamma_ref, 1.0)
        assert lam(0.0) == pytest.approx(-0.05, abs=1e-9)
        assert lam(3.0) == pytest.approx(-0.05, abs=1e-9)

    def test_constant_sigma(self, gamma_ref):
        model = make_constant_sigma(0.3)
        lam = averaged_drift(model, gamma_ref, 1.0)
        assert lam(0.0) == pytest.approx(-0.045, abs=1e-10)

    def test_linear_in_gamma(self, gamma_ref):
        model = make_heston(**REF, rho=-0.5, x0=0.0, y0=0.1)
        assert averaged_drift(model, gamma_ref, 2.0)(0.0) == \
            pytest.approx(2 * averaged_drift(model, gamma_ref, 1.0)(0.0), rel=1e-12)


class TestAveragedPath:
    def test_heston_line(self, gamma_ref):
        model = make_heston(**REF, rho=-0.5, x0=0.0, y0=0.1)
        path = averaged_state_path(model, gamma_ref, 1.0, 1.0, 16)
        assert path.values[-1] == pytest.approx(-0.05, abs=1e-9)
        np.testing.assert_allclose(path.values, -0.05 * path.times, atol=1e-9)

    def test_zero_drift_constant_path(self, gamma_ref):
        from mdpvol.models import ModelSpec, fused_from_handles

        def zero(x, y):
            return np.zeros_like(np.asarray(y, dtype=float))

        model = ModelSpec(coeffs_fused=fused_from_handles(zero, zero, zero),
                          rho=0.0, x0=0.4, y0=0.2, kind="custom",
                          growth=GrowthExponents())
        path = averaged_state_path(model, gamma_ref, 1.0, 2.0, 8)
        np.testing.assert_allclose(path.values, 0.4, atol=0)

    def test_step_count_immaterial_for_constant_drift(self, gamma_ref):
        model = make_heston(**REF, rho=-0.5, x0=0.0, y0=0.1)
        one = averaged_state_path(model, gamma_ref, 1.0, 1.0, 1)
        many = averaged_state_path(model, gamma_ref, 1.0, 1.0, 1000)
        assert one.values[-1] == pytest.approx(many.values[-1], abs=1e-12)


class TestInvariantForModel:
    def test_heston_dispatch(self):
        model = make_heston(**REF, rho=-0.5, x0=0.0, y0=0.1)
        assert family(model).invariant().kind == "gamma"

    def test_x_dependent_fast_dynamics_rejected(self):
        model = make_lsv(lambda x: 1.0 + 0 * np.asarray(x),
                         lambda y: 1.0 + 0 * np.asarray(y),
                         lambda x, y: np.asarray(x) - np.asarray(y),
                         lambda x, y: np.ones_like(np.asarray(y, dtype=float)),
                         0.0, 0.0, 0.2, GrowthExponents(q_sigma=0, q_g=0))
        with pytest.raises(UnsupportedModelError):
            family(model).invariant()
