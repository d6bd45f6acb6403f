import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdpvol import mdp_growth_condition


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
