import numpy as np
import pytest

from mdpvol import (DomainError, check_assumptions, make_constant_sigma,
                    make_heston, make_lsv, make_power_family, make_stein_stein,
                    with_functional_growth)
from mdpvol.models import GrowthExponents


class TestMakeHeston:
    def test_sigma_at_reference(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        assert model.sigma(0.0, 0.1) == pytest.approx(np.sqrt(0.1), abs=0)

    def test_growth_exponents(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        assert model.growth.nu_sigma == 0.5
        assert model.growth.nu_g == 0.5
        assert model.growth.q_sigma == 0.5
        assert model.growth.q_g == 0.5

    @pytest.mark.parametrize("bad, name", [
        (dict(kappa=-1), "kappa"),
        (dict(theta=0), "theta"),
        (dict(xi=0), "xi"),
        (dict(rho=1.5), "rho"),
        (dict(y0=0), "y0"),
    ])
    def test_preconditions_name_offender(self, bad, name):
        kwargs = dict(kappa=2, theta=0.1, xi=0.5, rho=-0.5, x0=0.0, y0=0.1)
        kwargs.update(bad)
        with pytest.raises(DomainError, match=name):
            make_heston(**kwargs)

    def test_negative_y_clamped(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        sigma, f, g = (model.sigma(0.0, -0.01), model.f(0.0, -0.01),
                       model.g(0.0, -0.01))
        assert sigma == 0.0
        assert g == 0.0
        assert f == pytest.approx(2 * 0.1)

    def test_sigma_squared_is_y_on_grid(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        y = np.linspace(0.0, 3.0, 101)
        np.testing.assert_allclose(model.sigma(0.0, y) ** 2, y, atol=1e-15)


class TestMakeSteinStein:
    def test_sigma_is_y(self):
        model = make_stein_stein(0.1, -1, 0.3, 0.0, 0.0, 0.2)
        assert model.sigma(0.0, 0.2) == 0.2

    def test_growth_exponents(self):
        model = make_stein_stein(0.1, -1, 0.3, 0.0, 0.0, 0.2)
        assert model.growth.nu_sigma == 1.0
        assert model.growth.nu_g == 0.0

    def test_zero_diffusion_rejected(self):
        with pytest.raises(DomainError, match="c"):
            make_stein_stein(0.1, -1, 0.0, 0.0, 0.0, 0.2)

    def test_drift_evaluation(self):
        model = make_stein_stein(0.1, -1, 0.3, 0.0, 0.0, 0.2)
        assert model.f(0.0, 0.5) == pytest.approx(-0.4)


class TestMakePowerFamily:
    def test_reproduces_heston_pointwise(self):
        kappa, theta, xi = 2.0, 0.1, 0.5
        heston = make_heston(kappa, theta, xi, -0.5, 0.0, 0.1)
        power = make_power_family(kappa * theta, -kappa, xi, 1.0, 0.5, 0.5,
                                  -0.5, 0.0, 0.1)
        x = np.linspace(-1, 1, 7)[:, None]
        y = np.linspace(0.0, 2.0, 33)[None, :]
        for name in ("sigma", "f", "g"):
            np.testing.assert_allclose(
                getattr(power, name)(x, y), getattr(heston, name)(x, y),
                rtol=0, atol=1e-15)

    def test_reproduces_stein_stein(self):
        ss = make_stein_stein(0.1, -1.0, 0.3, 0.2, 0.0, 0.2)
        power = make_power_family(0.1, -1.0, 0.3, 1.0, 0.0, 1.0, 0.2, 0.0, 0.2)
        y = np.linspace(0.0, 2.0, 17)
        for name in ("sigma", "f", "g"):
            np.testing.assert_allclose(
                getattr(power, name)(0.0, y), getattr(ss, name)(0.0, y),
                rtol=0, atol=1e-15)

    def test_exponent_region_enforced(self):
        with pytest.raises(DomainError, match="nu_g"):
            make_power_family(0.2, -2.0, 0.5, 1.0, 0.6, 0.5, 0.0, 0.0, 0.1)


class TestAssumptionChecks:
    def test_heston_cir_branch_passes_with_linear_functional(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        report = check_assumptions(model, q_h=1.0)
        assert report.passed("functional-growth-cir")

    def test_heston_generic_branch_fails_with_linear_functional(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        report = check_assumptions(model, q_h=1.0)
        assert not report.passed("functional-growth-generic")

    def test_stein_stein_growth_sum_boundary(self):
        model = make_stein_stein(0.1, -1, 0.3, 0.0, 0.0, 0.2)
        report = check_assumptions(model)
        assert report.passed("growth-sum")  # 1 + 0 <= 1

    def test_q_h_from_growth_metadata(self):
        model = with_functional_growth(make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1), 1.0)
        report = check_assumptions(model)
        assert report.passed("functional-growth-cir")

    def test_deterministic(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        a = check_assumptions(model, q_h=1.0, beta=0.25)
        b = check_assumptions(model, q_h=1.0, beta=0.25)
        assert a == b

    def test_mean_reversion_entry(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        assert check_assumptions(model).passed("mean-reversion")

    @pytest.mark.parametrize("build, expected", [
        (lambda: make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1), True),
        (lambda: make_stein_stein(0.1, -1, 0.3, 0.0, 0.0, 0.2), False),
        (lambda: make_constant_sigma(0.2), False),
        (lambda: make_lsv(lambda x: 1.0 + 0 * np.asarray(x),
                          lambda y: np.sqrt(np.maximum(y, 0.0)),
                          lambda x, y: 0.2 - 2.0 * np.asarray(y),
                          lambda x, y: 0.5 * np.sqrt(np.maximum(y, 0.0)),
                          0.0, 0.0, 0.1,
                          GrowthExponents(nu_sigma=0.5, nu_g=0.5,
                                          q_sigma=0.5, q_g=0.5)), False),
        (lambda: make_power_family(0.2, -2.0, 0.5, 1.0, 0.5, 0.5, 0.0, 0.0, 0.1), True),
        (lambda: make_power_family(0.2, -2.0, 0.5, 1.0, 0.75, 0.25, 0.0, 0.0, 0.1),
         True),
        (lambda: make_power_family(0.2, -2.0, 0.5, 1.0, 0.25, 0.5, 0.0, 0.0, 0.1),
         False),
        (lambda: make_power_family(-0.2, -2.0, 0.5, 1.0, 0.5, 0.5, 0.0, 0.0, 0.1),
         False),
    ], ids=["heston", "stein_stein", "constant_sigma", "lsv", "power_cir",
            "power_cir_qg075", "power_qg025", "power_negative_a"])
    def test_cir_branch_per_preset(self, build, expected):
        assert check_assumptions(build(), q_h=1.0).passed("functional-growth-cir") \
            is expected


class TestOtherKinds:
    def test_constant_sigma(self):
        model = make_constant_sigma(0.2)
        sigma, f, g = model.sigma(0.3, 1.7), model.f(0.3, 1.7), model.g(0.3, 1.7)
        assert (sigma, f, g) == (0.2, 0.0, 0.0)

    def test_lsv_stores_factorized_handles(self):
        model = make_lsv(lambda x: 1.0 + 0 * np.asarray(x),
                         lambda y: np.exp(np.asarray(y)),
                         lambda x, y: -np.asarray(y),
                         lambda x, y: np.ones_like(np.asarray(y, dtype=float)),
                         0.0, 0.0, 0.2,
                         GrowthExponents(q_sigma=0.5, q_g=0.0))
        assert model.sigma_local(0.0) == 1.0
        assert model.spot_sigma() == pytest.approx(np.exp(0.2))
