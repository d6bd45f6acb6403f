import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdpvol import (DomainError, SimConfig, check_assumptions,
                    estimate_smalltime_tail, make_constant_sigma, make_heston,
                    make_power_family, make_stein_stein, mdp_growth_condition,
                    tail_probability_exponent)
from mdpvol import mc


class TestMakeHeston:
    def test_sigma_at_reference(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        assert model.coefficients(0.1)[0] == pytest.approx(np.sqrt(0.1), abs=0)

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
        sigma, f, g = model.coefficients(-0.01)
        assert sigma == 0.0
        assert g == 0.0
        assert f == pytest.approx(2 * 0.1)

    def test_sigma_squared_is_y_on_grid(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        y = np.linspace(0.0, 3.0, 101)
        np.testing.assert_allclose(model.coefficients(y)[0] ** 2, y, atol=1e-15)


class TestMakeSteinStein:
    def test_sigma_is_y(self):
        model = make_stein_stein(0.1, -1, 0.3, 0.0, 0.0, 0.2)
        assert model.coefficients(0.2)[0] == 0.2

    def test_growth_exponents(self):
        model = make_stein_stein(0.1, -1, 0.3, 0.0, 0.0, 0.2)
        assert model.growth.nu_sigma == 1.0
        assert model.growth.nu_g == 0.0

    def test_zero_diffusion_rejected(self):
        with pytest.raises(DomainError, match="c"):
            make_stein_stein(0.1, -1, 0.0, 0.0, 0.0, 0.2)

    def test_drift_evaluation(self):
        model = make_stein_stein(0.1, -1, 0.3, 0.0, 0.0, 0.2)
        assert model.coefficients(0.5)[1] == pytest.approx(-0.4)


class TestMakePowerFamily:
    def test_reproduces_heston_pointwise(self):
        kappa, theta, xi = 2.0, 0.1, 0.5
        heston = make_heston(kappa, theta, xi, -0.5, 0.0, 0.1)
        power = make_power_family(kappa * theta, -kappa, xi, 1.0, 0.5, 0.5,
                                  -0.5, 0.0, 0.1)
        y = np.linspace(0.0, 2.0, 33)
        for ours, theirs in zip(power.coefficients(y), heston.coefficients(y)):
            np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-15)

    def test_reproduces_stein_stein(self):
        ss = make_stein_stein(0.1, -1.0, 0.3, 0.2, 0.0, 0.2)
        power = make_power_family(0.1, -1.0, 0.3, 1.0, 0.0, 1.0, 0.2, 0.0, 0.2)
        y = np.linspace(0.0, 2.0, 17)
        for ours, theirs in zip(power.coefficients(y), ss.coefficients(y)):
            np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-15)

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

    def test_deterministic(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        a = check_assumptions(model, q_h=1.0)
        b = check_assumptions(model, q_h=1.0)
        assert a == b

    def test_mean_reversion_entry(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
        assert check_assumptions(model).passed("mean-reversion")

    @pytest.mark.parametrize("build, expected", [
        (lambda: make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1), True),
        (lambda: make_stein_stein(0.1, -1, 0.3, 0.0, 0.0, 0.2), False),
        (lambda: make_constant_sigma(0.2, 0.0), False),
        (lambda: make_power_family(0.2, -2.0, 0.5, 1.0, 0.5, 0.5, 0.0, 0.0, 0.1), True),
        (lambda: make_power_family(0.2, -2.0, 0.5, 1.0, 0.75, 0.25, 0.0, 0.0, 0.1),
         True),
        (lambda: make_power_family(0.2, -2.0, 0.5, 1.0, 0.25, 0.5, 0.0, 0.0, 0.1),
         False),
        (lambda: make_power_family(-0.2, -2.0, 0.5, 1.0, 0.5, 0.5, 0.0, 0.0, 0.1),
         False),
    ], ids=["heston", "stein_stein", "constant_sigma", "power_cir",
            "power_cir_qg075", "power_qg025", "power_negative_a"])
    def test_cir_branch_per_preset(self, build, expected):
        assert check_assumptions(build(), q_h=1.0).passed("functional-growth-cir") \
            is expected


class TestOtherKinds:
    def test_constant_sigma(self):
        model = make_constant_sigma(0.2, 0.0)
        assert model.coefficients(1.7) == (0.2, 0.0, 0.0)


_SMALL_RUN = SimConfig(n_paths=100, n_steps=2, t_end=0.01, seed=1)


@pytest.mark.parametrize("read_spot", [
    lambda model: model.spot_sigma(),
    lambda model: estimate_smalltime_tail(model, 0.01, 0.2, 0.25, _SMALL_RUN),
    lambda model: mc.CALL.estimate(model, 0.01, 0.2, 0.25, _SMALL_RUN),
    lambda model: tail_probability_exponent(model, 0.3, 0.01),
], ids=["spot_sigma", "smalltime_tail", "call", "tail_probability"])
def test_zero_spot_volatility_refused(read_spot):
    # Stein-Stein has sigma = y, so y0 = 0 puts the spot volatility at 0
    model = make_stein_stein(0.0, -1.0, 0.3, -0.5, 0.0, 0.0)
    with pytest.raises(DomainError, match=r"^sigma\(y0\): must be non-zero, got 0.0$"):
        read_spot(model)


HANDLE_PRESETS = {
    "heston": lambda: make_heston(2.0, 0.1, 0.5, -0.5, 0.0, 0.1),
    "stein_stein": lambda: make_stein_stein(0.1, -1.0, 0.3, 0.2, 0.0, 0.2),
    "power_frac_050": lambda: make_power_family(0.3, -2.5, 0.45, 1.3, 0.5, 0.5,
                                                -0.3, 0.0, 0.1),
    "power_frac_025": lambda: make_power_family(0.2, -2.0, 0.5, 1.3, 0.75, 0.25,
                                                0.1, 0.0, 0.1),
    "power_int": lambda: make_power_family(0.15, -1.2, 0.35, 1.2, 0.0, 1.0,
                                           0.2, 0.0, 0.2),
    "constant_sigma": lambda: make_constant_sigma(0.2, 0.0),
}

_PIN_Y = np.array([-1.5, -0.3, -1e-300, -0.0, 0.0, 5e-324, 1e-300, 1e-8,
                   0.01, 0.1, 0.25, 0.5, 1.0, 1.7, 3.0, 1e10])
# scalar factors (a negative one and zero among them) and one array
_PIN_FACTORS = (0.1, -0.2, 0.0, 1.7, _PIN_Y)
_COEFFICIENT = {"sigma": 0, "f": 1, "g": 2}


def _handle_digest(model, name):
    """SHA-256 of one coefficient on every pin factor."""
    digest = hashlib.sha256()
    for y in _PIN_FACTORS:
        value = model.coefficients(y)[_COEFFICIENT[name]]
        digest.update(repr(value.shape).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


HANDLE_PINS = {
    ("heston", "sigma"):
        "b39241b009b827c7cb569f1c9c7ea020ab262ad7524878e98c52de9de9880900",
    ("heston", "f"):
        "9374f671c90cba8e98b7f8c70648cb97afb80adbf8f0bbce5f7e9d6e8cb55aba",
    ("heston", "g"):
        "fbecf464060c7c0b59289e3b54526474aa8cbc07c1df987cf74e1b3bdbddc8b7",
    ("stein_stein", "sigma"):
        "d150a53bbac57cff7ed941b059503ea518cbba5e92343d42d39d7ae2cf31c21c",
    ("stein_stein", "f"):
        "895116d44c18125cb5dbbdbfef3096a08064fb2a07192d29f4d1539c6c27ab22",
    ("stein_stein", "g"):
        "4c6f54780ed581470c62a9bafb8c77cb0f4249422b8b20f15f3843d44429db72",
    ("power_frac_050", "sigma"):
        "d9c86864168dc7d4fd91b8d66ac6982500eddfa5489bb2878517af17527b24fa",
    ("power_frac_050", "f"):
        "79992f18703ac0f812e717db96045235f3be996779c0a56a8db8336b472b9e22",
    ("power_frac_050", "g"):
        "03f7a9bdc6a7579c1bd95be561ce9f11c2e24fd33e87dbfe0b4fea9306cdcdb4",
    ("power_frac_025", "sigma"):
        "7a1b99f4f79bd34d39ec1e1e345cb15f3118f806bcf2d1b6fe6b54d9411c3f5d",
    ("power_frac_025", "f"):
        "62eb77145d6040e7f3601828d659a04799d0f81263c3273f0728dd90765dd92a",
    ("power_frac_025", "g"):
        "59c8525b859c6213515a9534fe8cd633611b74206f69f16b4160a3ed28f8d01c",
    ("power_int", "sigma"):
        "8d0d157123ef7b7ad614ef9d79176554de0385c01204eab7247d7c3ae5287ba0",
    ("power_int", "f"):
        "501e7ccf032bb033cba40f0279ed7a07b0a1824a9ca28b2de956bcf919c95e13",
    ("power_int", "g"):
        "35578b986845861370516fe2a7928cd718c603eddf3dd10ce076f5fcf0afb332",
    ("constant_sigma", "sigma"):
        "281dd135fae46622095665d0f772a791107a709616901af50c495c5dde9b9a91",
    ("constant_sigma", "f"):
        "1255cf2311f6fb4c4bb77a361eb78273fd3855362ea31673648d4ff7a1b8ee80",
    ("constant_sigma", "g"):
        "1255cf2311f6fb4c4bb77a361eb78273fd3855362ea31673648d4ff7a1b8ee80",
}


@pytest.mark.parametrize("preset, name", sorted(HANDLE_PINS))
def test_coefficient_pins(preset, name):
    assert _handle_digest(HANDLE_PRESETS[preset](), name) == HANDLE_PINS[(preset, name)]


def test_coefficients_follow_swapped_kernel():
    heston = make_heston(2.0, 0.1, 0.5, -0.5, 0.0, 0.1)
    calls = []

    def kernel(y, out):
        calls.append(np.shape(y))
        out[0].fill(0.3)
        np.multiply(y, -1.0, out=out[1])
        out[2].fill(0.7)

    model = dataclasses.replace(heston, coeffs_fused=kernel)
    y = np.array([-0.5, 0.0, 0.2, 1.0])
    sigma, f, g = model.coefficients(y)
    np.testing.assert_array_equal(sigma, np.full(4, 0.3))
    np.testing.assert_array_equal(f, -y)
    np.testing.assert_array_equal(g, np.full(4, 0.7))
    assert model.spot_sigma() == 0.3
    assert calls == [(4,), ()]


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
