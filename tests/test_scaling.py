import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdpvol import (DomainError, ScalingRegime, h_eval, make_heston,
                    mdp_growth_condition, rescaled_coefficients, tail_exponent)


@pytest.fixture
def regime():
    return ScalingRegime(beta=0.25, gamma=1.0, zeta_c=0.0)


class TestHEval:
    def test_hand_value(self, regime):
        assert h_eval(regime, 0.01) == pytest.approx(3.1622776601683795, rel=1e-15)

    def test_unit_eps(self, regime):
        assert h_eval(regime, 1.0) == 1.0

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5])
    def test_domain(self, regime, eps):
        with pytest.raises(DomainError):
            h_eval(regime, eps)

    def test_normalization_vanishes(self, regime):
        values = [np.sqrt(eps) * h_eval(regime, eps)
                  for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)]
        assert all(v < 1 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(beta=st.floats(0.01, 0.49), eps=st.floats(1e-8, 1.0))
    def test_normalization_below_one(self, beta, eps):
        regime = ScalingRegime(beta=beta)
        assert np.sqrt(eps) * h_eval(regime, eps) <= 1.0


class TestRegimeValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(beta=0.0), dict(beta=0.5), dict(beta=0.25, gamma=0.0),
        dict(beta=0.25, zeta_c=np.inf),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            ScalingRegime(**kwargs)

    def test_zeta(self, regime):
        assert regime.zeta_c == 0.0
        assert ScalingRegime(0.25, 1.0, 0.5).zeta_c == 0.5
        assert ScalingRegime(0.25, 1.0, -1.0).zeta_c == -1.0


class TestRescaledCoefficients:
    def test_identity(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        sc = rescaled_coefficients(model, 1.0, 1.0)
        assert (sc.drift_x, sc.diff_x, sc.drift_y, sc.diff_y) == (1, 1, 1, 1)

    def test_small_time(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        sc = rescaled_coefficients(model, 0.01, 1.0)
        assert (sc.drift_x, sc.diff_x, sc.drift_y, sc.diff_y) == \
            pytest.approx((0.01, 0.1, 0.01, 0.1))

    def test_equal_scales(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        sc = rescaled_coefficients(model, 0.1, 0.1)
        assert sc.drift_y == pytest.approx(10.0)


class TestTailExponent:
    @pytest.mark.parametrize("nu_sigma, nu_g, expected", [
        (0.5, 0.5, 1.0),    # square-root pair
        (1.0, 0.0, 1.0),    # linear-sigma pair
        (0.25, 0.25, 2 / 3),
    ])
    def test_values(self, nu_sigma, nu_g, expected):
        assert tail_exponent(nu_sigma, nu_g) == pytest.approx(expected, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            tail_exponent(0.5, 0.6)


class TestGrowthCondition:
    @pytest.mark.parametrize("beta", np.arange(0.1, 0.46, 0.05).tolist())
    def test_matches_closed_form_for_linear_functional(self, beta):
        bound = 1.0 / (2 * beta + 1)
        for q_g in np.linspace(0.5, 0.99, 61):
            assert mdp_growth_condition(float(q_g), 1.0, beta) == (q_g < bound)

    @given(q_g=st.floats(0.0, 0.99), q_h=st.floats(0.0, 2.0),
           beta=st.floats(0.01, 0.49))
    def test_agrees_with_exponent_sign(self, q_g, q_h, beta):
        expected = 0.5 - beta * (q_g + q_h - 1) / (1 - q_g) > 0
        assert mdp_growth_condition(q_g, q_h, beta) == expected
