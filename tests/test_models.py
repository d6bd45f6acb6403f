import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdpvol import (DomainError, check_assumptions, make_constant_sigma,
                    make_heston, make_power_family, make_stein_stein,
                    mdp_growth_condition)


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
        sigma, f, g = model.sigma(0.3, 1.7), model.f(0.3, 1.7), model.g(0.3, 1.7)
        assert (sigma, f, g) == (0.2, 0.0, 0.0)


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
_PIN_X = np.linspace(-1.0, 1.0, len(_PIN_Y))
# scalars (a negative factor and zero among them), equal-length arrays, a
# scalar x against an array y, and a broadcast grid
_PIN_INPUTS = ((0.0, 0.1), (0.3, -0.2), (0.0, 0.0), (-0.5, 1.7),
               (_PIN_X, _PIN_Y), (0.0, _PIN_Y), (_PIN_X[::3, None], _PIN_Y[None, :]))


def _handle_digest(model, name):
    """SHA-256 of one coefficient on every pin input, broadcast to its shape."""
    digest = hashlib.sha256()
    for x, y in _PIN_INPUTS:
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        value = np.broadcast_to(np.asarray(getattr(model, name)(x, y), dtype=float), shape)
        digest.update(repr(shape).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


HANDLE_PINS = {
    ("heston", "sigma"): "e5e5411a023c9bf1ec3e8195eac6d38c1e1e6b35bf3122e27db057856c2f2a84",
    ("heston", "f"): "dde7b53622e6e2edfaec81ea2e93d6c5c953c7f0e7b06ee235e23f3f5c219b19",
    ("heston", "g"): "bfd8c9ba002959369c0f5bf2778aedf1b32c2455660867ef937b0cf51472c9d6",
    ("stein_stein", "sigma"): "40862087314aab2674cc7737ce76b169abbde0d774ce4558d7a7e5da16e7583d",
    ("stein_stein", "f"): "f215b25fa9e1c871d872858c110a5302fec5b54cd602dc3a9a8b8e6d54c8f106",
    ("stein_stein", "g"): "04ffb88eb72daa90956112e36773d247a6f4cbbcc1bb130c3bb169a925ae2c13",
    ("power_frac_050", "sigma"): "153598497a0bcea7ab41ae7a62714a02817cce078f1d6d2890f68c207be35ac6",
    ("power_frac_050", "f"): "95a8170b1f76960df96b80e548af80dbe2512edeb5bd3deded685bc2659ad6e5",
    ("power_frac_050", "g"): "bf39c2ab123285f583b48d789585b378388fa607f3432cc847f3ab69e7596bcf",
    ("power_frac_025", "sigma"): "6314ae91def3df0bd240f0aa6c899bd9f2625b06307ce036af2ac9b129aa9b00",
    ("power_frac_025", "f"): "968873860b18f97a3ccdea8179a78448ee225413fdd5aee9cca66a9b17da2aec",
    ("power_frac_025", "g"): "69de020f464b0b580e53dc72feaa7ef52fcabf36373349ad0b279a32c217c215",
    ("power_int", "sigma"): "06d5ee29750e33a2dc9ac19869112aee0777f172e4da9d5456c1ac69bd13728d",
    ("power_int", "f"): "f1599124da7a9b1d5a74b5a948517df07e6b1f2e889fe765f14d4e85e5a120a1",
    ("power_int", "g"): "0a929f1d95757c0b2f4f4a64ba3c9f3e1b620b1d3514e9969bdd7d87af238cd7",
    ("constant_sigma", "sigma"): "8220734f914fd30584cb2f2e8e72a60bd190cd20d2060d88bec28929d5566b27",
    ("constant_sigma", "f"): "b8e23bae1116f5b445c257928591011839a4b4cc3bb37c426fda40ba8825a726",
    ("constant_sigma", "g"): "b8e23bae1116f5b445c257928591011839a4b4cc3bb37c426fda40ba8825a726",
}


@pytest.mark.parametrize("preset, name", sorted(HANDLE_PINS))
def test_coefficient_pins(preset, name):
    assert _handle_digest(HANDLE_PRESETS[preset](), name) == HANDLE_PINS[(preset, name)]


def test_coefficients_follow_swapped_kernel():
    heston = make_heston(2.0, 0.1, 0.5, -0.5, 0.0, 0.1)
    calls = []

    def kernel(x, y, out):
        calls.append(np.shape(x))
        out[0].fill(0.3)
        np.multiply(y, -1.0, out=out[1])
        out[2].fill(0.7)

    model = dataclasses.replace(heston, coeffs_fused=kernel)
    y = np.array([-0.5, 0.0, 0.2, 1.0])
    np.testing.assert_array_equal(model.sigma(0.0, y), np.full(4, 0.3))
    np.testing.assert_array_equal(model.f(0.0, y), -y)
    np.testing.assert_array_equal(model.g(0.0, y), np.full(4, 0.7))
    assert model.spot_sigma() == 0.3
    assert calls == [(4,), (4,), (4,), ()]


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
