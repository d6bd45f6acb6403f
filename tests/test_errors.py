"""The one range check and the one non-zero check: ``errors.bound_violation``,
``errors.nonzero_violation`` and the arguments they guard.

Every bounded or non-zero argument of a public function refuses NaN with a
DomainError whose message starts with the argument's name, in the form
``config`` prints; a non-zero argument refuses 0 too, and a model's unbounded
arguments refuse NaN and +-inf.
"""

import math

import pytest

from mdpvol import (DomainError, GrowthExponents, LargeTimeParams, LdpHestonParams,
                    ModelSpec, RealizedVarLdp, SimConfig, contract_two_to_one,
                    endpoint_rate, estimate_rv_tail, estimate_smalltime_tail,
                    gamma_invariant, heston_lambda, heston_u_star, largetime_put_quote,
                    make_constant_sigma, make_heston, make_power_family, make_stein_stein,
                    mdp_growth_condition, minimize_endpoint, qbar_integrated, rv_lambda_inf,
                    rv_lambda_star, rv_mgf, rv_option_quotes, small_time_rate_1d,
                    small_time_rate_2d, smalltime_call_exponent, solve_phi_cir,
                    speed_measure, tail_probability_exponent)
from mdpvol.errors import BETA_BOUNDS, POSITIVE, bound_violation, nonzero_violation

HESTON = make_heston(2.0, 0.1, 0.5, -0.5, 0.0, 0.1)
LDP = LdpHestonParams(2.0, 0.1, 0.5, -0.5)
RV = RealizedVarLdp(2.0, 0.1, 0.5, 0.1)
SIM = SimConfig(n_paths=100, n_steps=2, t_end=0.01)

# each public function with a bounded argument: valid keyword arguments, and
# the names of its bounded arguments
BOUNDED = {
    "make_heston": (make_heston, dict(kappa=2.0, theta=0.1, xi=0.5, rho=-0.5, x0=0.0,
                                      y0=0.1), ("kappa", "theta", "rho", "y0")),
    "make_stein_stein": (make_stein_stein, dict(a=0.0, b=-1.0, c=0.3, rho=-0.5, x0=0.0,
                                                y0=0.1), ("rho",)),
    "make_power_family": (make_power_family, dict(a=0.2, b=-2.0, c_g=0.5, c_sigma=1.0,
                                                  nu_g=0.5, nu_sigma=0.5, rho=-0.5,
                                                  x0=0.0, y0=0.1),
                          ("nu_sigma", "nu_g", "rho")),
    "mdp_growth_condition": (mdp_growth_condition, dict(q_g=0.5, q_h=1.0, beta=0.25),
                             ("q_g", "beta")),
    "gamma_invariant": (gamma_invariant, dict(kappa=2.0, theta=0.1, xi=0.5),
                        ("kappa", "theta")),
    "speed_measure": (speed_measure, dict(kappa=2.0, theta=0.1, xi=0.5, q_g=0.75),
                      ("q_g", "kappa", "theta")),
    "solve_phi_cir": (solve_phi_cir, dict(kappa=2.0, theta=0.1), ("kappa", "theta")),
    "small_time_rate_2d": (small_time_rate_2d, dict(sigma0=0.3, g0=0.5, rho=-0.5,
                                                    phi=None, psi=None), ("rho",)),
    "contract_two_to_one": (contract_two_to_one, dict(sigma0=0.3, g0=0.5, rho=-0.5,
                                                      phi=None), ("rho",)),
    "qbar_integrated": (qbar_integrated, dict(model=HESTON, measure=None, poisson_u=None,
                                              gamma=1.0), ("gamma",)),
    "minimize_endpoint": (minimize_endpoint, dict(q=0.1, alpha=0.0, x_target=0.1,
                                                  horizon=1.0, n_steps=4),
                          ("q", "n_steps", "horizon")),
    "endpoint_rate": (endpoint_rate, dict(q=0.1, x=0.1), ("q",)),
    "LdpHestonParams": (LdpHestonParams, dict(kappa=2.0, theta=0.1, xi=0.5, rho=-0.5),
                        ("kappa", "theta", "rho")),
    "heston_lambda": (heston_lambda, dict(params=LDP, u=0.5), ("u",)),
    "heston_u_star": (heston_u_star, dict(params=LDP, x=0.1), ("x",)),
    "RealizedVarLdp": (RealizedVarLdp, dict(kappa=2.0, theta=0.1, xi=0.5, y0=0.1),
                       ("kappa", "theta", "y0")),
    "rv_mgf": (rv_mgf, dict(params=RV, u=0.5, t=1.0), ("t", "u")),
    "rv_lambda_inf": (rv_lambda_inf, dict(params=RV, u=0.5), ("u",)),
    "rv_lambda_star": (rv_lambda_star, dict(params=RV, x=0.1), ("x",)),
    "smalltime_call_exponent": (smalltime_call_exponent, dict(model=HESTON, k=0.2),
                                ("k",)),
    "largetime_put_quote": (largetime_put_quote, dict(params=LargeTimeParams(0.0, 0.1),
                                                      x=-0.1, beta=0.25, t=1.0),
                            ("beta", "t")),
    "rv_option_quotes": (rv_option_quotes, dict(params=RV, x=0.05, beta=0.25, t=1.0),
                         ("x", "beta", "t")),
    "tail_probability_exponent": (tail_probability_exponent, dict(model=HESTON, x=0.2,
                                                                  t=1.0), ("x", "t")),
    "SimConfig": (SimConfig, dict(n_paths=100, n_steps=2, t_end=0.01), ("t_end",)),
    "estimate_smalltime_tail": (estimate_smalltime_tail, dict(model=HESTON, t=0.01, k=0.2,
                                                              beta=0.25, config=SIM),
                                ("t", "k", "beta")),
    "estimate_rv_tail": (estimate_rv_tail, dict(model=HESTON, t=1.0, x=0.05, beta=0.25,
                                                config=SIM), ("t", "x", "beta")),
}


def _assert_refused(call, kwargs, name, value):
    with pytest.raises(DomainError) as caught:
        call(**{**kwargs, name: value})
    assert str(caught.value).startswith(f"{name}: ")


@pytest.mark.parametrize("function, name", [
    (function, name) for function, (_, _, names) in BOUNDED.items() for name in names])
def test_nan_is_refused_naming_the_argument(function, name):
    call, kwargs, _ = BOUNDED[function]
    _assert_refused(call, kwargs, name, math.nan)


def _spot_sigma(**level):
    """``spot_sigma()`` of a model whose volatility is the constant level["sigma(y0)"]."""
    def fused(y, out):
        out[0].fill(level["sigma(y0)"])
        out[1].fill(0.0)
        out[2].fill(0.0)

    return ModelSpec(coeffs_fused=fused, rho=0.0, x0=0.0, y0=0.1, kind="custom",
                     growth=GrowthExponents()).spot_sigma()


# each public function with a non-zero argument: valid keyword arguments, and
# the names of its non-zero arguments
NONZERO = {
    "make_heston": (make_heston, BOUNDED["make_heston"][1], ("xi",)),
    "gamma_invariant": (gamma_invariant, BOUNDED["gamma_invariant"][1], ("xi",)),
    "speed_measure": (speed_measure, BOUNDED["speed_measure"][1], ("xi",)),
    "LdpHestonParams": (LdpHestonParams, BOUNDED["LdpHestonParams"][1], ("xi",)),
    "RealizedVarLdp": (RealizedVarLdp, BOUNDED["RealizedVarLdp"][1], ("xi",)),
    "make_stein_stein": (make_stein_stein, BOUNDED["make_stein_stein"][1], ("c",)),
    "make_power_family": (make_power_family, BOUNDED["make_power_family"][1], ("c_sigma",)),
    "make_constant_sigma": (make_constant_sigma, dict(c_sigma=0.2, x0=0.0), ("c_sigma",)),
    "small_time_rate_2d": (small_time_rate_2d, BOUNDED["small_time_rate_2d"][1],
                           ("sigma0", "g0")),
    "small_time_rate_1d": (small_time_rate_1d, dict(sigma0=0.3, phi=None), ("sigma0",)),
    "contract_two_to_one": (contract_two_to_one, BOUNDED["contract_two_to_one"][1],
                            ("sigma0", "g0")),
    "ModelSpec.spot_sigma": (_spot_sigma, {}, ("sigma(y0)",)),
}


@pytest.mark.parametrize("value", [0.0, math.nan])
@pytest.mark.parametrize("function, name", [
    (function, name) for function, (_, _, names) in NONZERO.items() for name in names])
def test_zero_and_nan_are_refused_naming_the_argument(function, name, value):
    call, kwargs, _ = NONZERO[function]
    _assert_refused(call, kwargs, name, value)


# each preset's arguments without a bound of their own, which ModelSpec
# refuses unless finite
UNBOUNDED = {
    "make_heston": ("x0",),
    "make_stein_stein": ("a", "b", "x0", "y0"),
    "make_power_family": ("a", "b", "c_g", "x0", "y0"),
    "make_constant_sigma": ("x0",),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("preset, name", [
    (preset, name) for preset, names in UNBOUNDED.items() for name in names])
def test_a_model_refuses_non_finite_arguments(preset, name, value):
    call, kwargs, _ = NONZERO[preset]
    _assert_refused(call, kwargs, name, value)


@pytest.mark.parametrize("value, bounds, message", [
    (0, POSITIVE, "y0: must be > 0, got 0"),
    (0.5, BETA_BOUNDS, "y0: must be < 0.5, got 0.5"),
    (-1, {"lo": 0}, "y0: must be >= 0, got -1"),
    (2, {"lo": 0, "hi": 1}, "y0: must be <= 1, got 2"),
    (math.nan, {"hi": 1}, "y0: must be <= 1, got nan"),
])
def test_the_message_names_the_first_broken_bound(value, bounds, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        bound_violation("y0", value, **bounds)


def test_a_value_inside_its_bounds_passes():
    assert bound_violation("y0", 0.1, lo=0, hi=0.1, lo_strict=True) is None


@pytest.mark.parametrize("value, message", [
    (0, "xi: must be non-zero, got 0"),
    (-0.0, "xi: must be non-zero, got -0.0"),
    (math.nan, "xi: must be non-zero, got nan"),
])
def test_the_nonzero_message(value, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        nonzero_violation("xi", value)


@pytest.mark.parametrize("value", [-1e-300, 0.5, math.inf])
def test_a_nonzero_value_passes(value):
    assert nonzero_violation("xi", value) is None
