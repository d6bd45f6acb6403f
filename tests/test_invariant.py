import json
import math

import numpy as np
import pytest

from mdpvol import (DomainError, GrowthError, gamma_invariant, family, integrate,
                    make_heston, speed_measure)
from mdpvol.cli import main
from mdpvol.quadrature import segment_nodes

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


# The parameter region of the square-root and power-diffusion factors, as
# README states it: kappa, log-uniform theta, xi, q_g.  CORNER combines a small
# theta with a large 2 kappa / xi^2, where the log density peaks far above 0.
REGION = {"kappa": (0.2, 8.0), "theta": (0.005, 3.0), "xi": (0.1, 1.5), "q_g": (0.55, 0.95)}
CORNER = (6.4431, 0.0087, 0.1479, 0.7037)


def _region_sample(seed=20261021, size=50):
    rng = np.random.default_rng(seed)
    (k_lo, k_hi), (t_lo, t_hi), (x_lo, x_hi), (q_lo, q_hi) = REGION.values()
    draws = zip(rng.uniform(k_lo, k_hi, size),
                np.exp(rng.uniform(math.log(t_lo), math.log(t_hi), size)),
                rng.uniform(x_lo, x_hi, size), rng.uniform(q_lo, q_hi, size))
    return [CORNER] + [tuple(map(float, draw)) for draw in draws]


class TestRegion:
    @pytest.mark.parametrize("params", _region_sample(), ids=lambda p: "-".join(
        f"{v:.4g}" for v in p))
    def test_speed_measure_constructs_and_is_stationary(self, params):
        kappa, theta, xi, q_g = params
        measure = speed_measure(*params)
        assert measure.y_lo < theta < measure.y_hi
        assert math.isfinite(measure.mass_below) and math.isfinite(measure.mass_above)

        def generator_f(y):
            # L F for the bounded F = exp(-y)
            return (-kappa * (theta - y) + 0.5 * (xi * y ** q_g) ** 2) * np.exp(-y)

        assert abs(integrate(measure, generator_f).value) <= 1e-14

    @pytest.mark.parametrize("sub", ["invariant", "poisson"])
    def test_cli_at_the_corner(self, tmp_path, sub):
        kappa, theta, xi, q_g = CORNER
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kind": "heston", "kappa": kappa,
                                             "theta": theta, "xi": xi},
                                   "params": {"q_g": q_g}}))
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"{sub}.csv").exists()


# (kappa, theta, xi, q_g): q_g at 1/2, just above it, inside and just below 1,
# the corner, and a wide law whose y_hi is far above theta
EXPONENT_SETS = ([(*REF.values(), q_g) for q_g in (0.5, 0.5 + 1e-9, 0.75, 0.95, 1 - 1e-9)]
                 + [CORNER, (0.23291, 0.03376, 1.35492, 0.9164)])


@pytest.mark.parametrize("params", EXPONENT_SETS, ids=lambda p: "-".join(
    f"{v:.10g}" for v in p))
def test_log_density_matches_exponent_quadrature(params):
    # log m(y) - log m(theta) against an order-16 Gauss-Legendre integral of
    # the exponent integrand, on panels of edge ratio 2^(1/8) from theta out
    kappa, theta, xi, q_g = params
    measure = speed_measure(*params)
    down = math.floor(8 * math.log2(theta / measure.y_lo))
    up = math.floor(8 * math.log2(measure.y_hi / theta))
    grid = theta * 2.0 ** (np.arange(-down, up + 1) / 8)
    nodes, w, half = segment_nodes(grid, 16)
    panels = np.sum(2 * kappa * (theta - nodes) / (xi ** 2 * nodes ** (2 * q_g)) * w,
                    axis=1) * half
    exponent = np.concatenate((-np.cumsum(panels[:down][::-1])[::-1], [0.0],
                               np.cumsum(panels[down:])))
    reference = exponent - 2 * q_g * np.log(grid / theta)
    closed = measure.log_density(grid) - measure.log_density(theta)
    kept = closed > -40
    assert np.max(np.abs(closed - reference)[kept]) <= 1e-12
