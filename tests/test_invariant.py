import numpy as np
import pytest

from mdpvol import (DomainError, GrowthError, gamma_invariant, family, integrate,
                    make_heston, speed_measure)
from mdpvol import invariant
from mdpvol.quadrature import segment_cumulative

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
        gap = np.max(np.abs(np.exp(numeric.log_density(ys)) - np.exp(gamma_ref.log_density(ys))))
        assert gap <= 1e-8

    def test_normalized(self):
        measure = speed_measure(**REF, q_g=0.75)
        value, _ = integrate(measure, lambda y: np.ones_like(y))
        assert abs(value - 1.0) <= 1e-8

    @pytest.mark.parametrize("params, calls", [
        ((3.0, 0.2, 0.3, 0.75), 1),   # y_hi = 1: the anchor is the last knot
        ((2.0, 0.1, 0.5, 0.75), 2),   # anchor between knots: one more segment
    ])
    def test_one_knot_table_per_call(self, monkeypatch, params, calls):
        # the truncation walk integrates its own panels; the only cumulative
        # quadrature is the knot table (and the shift to an off-grid anchor)
        grids = []

        def counted(fn, grid):
            grids.append(len(grid))
            return segment_cumulative(fn, grid)

        monkeypatch.setattr(invariant, "segment_cumulative", counted)
        measure = speed_measure(*params)
        assert (measure.y_hi == 1.0) == (calls == 1)
        assert len(grids) == calls and grids[0] >= 4096

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


class TestInvariantForModel:
    def test_heston_dispatch(self):
        model = make_heston(**REF, rho=-0.5, x0=0.0, y0=0.1)
        assert family(model).invariant().kind == "gamma"
