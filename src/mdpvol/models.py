"""Catalog of two-factor stochastic volatility models.

Every model in the catalog is a pair (X, Y) driven by correlated Brownian
motions,

    dX_t = -1/2 sigma^2(Y_t) dt + sigma(Y_t) dW_t,
    dY_t = f(Y_t) dt + g(Y_t) dZ_t,       d<W, Z>_t = rho dt,

where X is a log-price and Y a volatility factor; the coefficients are
functions of the factor alone.  Presets cover the Heston model
(sigma = sqrt(y), f = kappa (theta - y), g = xi sqrt(y)), Stein-Stein
(sigma = y, f = a + b y, g = c), the power family (sigma = c_sigma y^nu_sigma,
g = c_g y^nu_g, f = a + b y) and a constant-volatility reference model.

Each model defines its coefficients once, as an in-place kernel that writes
sigma, f and g at y into three caller-owned arrays: the Monte Carlo hot loop
calls it on its workspaces, and ``ModelSpec.coefficients`` calls it on fresh
arrays.  Coefficients are total functions: square-root-type models clamp the
factor argument at zero (full-truncation convention), which both keeps
evaluation defined for transient negative factor values and matches the
Monte Carlo discretization scheme.

Growth exponents are declared metadata, not inferred from the coefficients:
``nu_sigma``/``nu_g`` describe exact power-law coefficients, while
``q_sigma``/``q_g`` are polynomial-growth bounds used by the assumption
checker.  Presets fill them in; custom models must declare them.

``ModelSpec`` values are immutable after construction and safe to share
across threads; all operations in this module are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (BETA_BOUNDS, CORRELATION, FINITE, POSITIVE, bound_violation,
                     nonzero_violation, square_root_factor_violation)

@dataclass(frozen=True)
class GrowthExponents:
    """Declared growth metadata for a model's coefficients.

    ``nu_sigma`` and ``nu_g`` are exact power-law exponents (sigma ~ y^nu_sigma,
    g ~ y^nu_g) where the model has that form; ``q_sigma`` and ``q_g`` are
    polynomial-growth bounds |sigma| <= K (1 + |y|^q_sigma) etc.  The bound q_h
    of an integrated functional H is an argument of each computation.
    """

    nu_sigma: float | None = None
    nu_g: float | None = None
    q_sigma: float | None = None
    q_g: float | None = None


@dataclass(frozen=True)
class ModelSpec:
    """A concrete two-factor model: one coefficient kernel plus metadata.

    Attributes
    ----------
    coeffs_fused : callable (y, out) -> None
        The model's only coefficient definition: writes the volatility level
        sigma, the factor drift f and the factor diffusion g at the factor
        values y into the three caller-owned arrays of ``out``, all of the
        shape of y.  Square-root kinds clamp y at 0 inside it.
    rho : float
        Correlation between the price and factor Brownian motions.
    x0, y0 : float
        Initial log-price and factor level; like every ``params`` value, they
        must be finite.
    kind : str
        The family name; ``families.family`` dispatches on it.
    growth : GrowthExponents
        Declared growth metadata.
    params : mapping
        Named preset parameters (e.g. kappa/theta/xi for Heston), used by
        closed-form expressions downstream.
    x_drift_coeff : float
        The drift of X is ``x_drift_coeff * sigma^2``; -1/2 for the price
        measure, +1/2 after the share-measure change of drift.
    clamp_y : bool
        True when coefficients clamp the factor argument at zero.
    finite_exp_moments : bool
        Declared flag: E[exp(p X_t)] is finite for every p >= 1 and all
        sufficiently small t.  Required by the small-time call asymptotics.
    """

    coeffs_fused: Callable
    rho: float
    x0: float
    y0: float
    kind: str
    growth: GrowthExponents
    params: Mapping[str, float] = field(default_factory=dict)
    x_drift_coeff: float = -0.5
    clamp_y: bool = False
    finite_exp_moments: bool = True

    def __post_init__(self):
        for name, value in {"x0": self.x0, "y0": self.y0, **self.params}.items():
            bound_violation(name, value, **FINITE)

    def coefficients(self, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sigma, f, g) at the factor values y, as three new arrays."""
        y = np.asarray(y, dtype=float)
        out = (np.empty(y.shape), np.empty(y.shape), np.empty(y.shape))
        self.coeffs_fused(y, out)
        return out

    def spot_sigma(self) -> float:
        """Volatility level sigma(y0); raises DomainError when it is zero or NaN."""
        sigma0 = float(self.coefficients(self.y0)[0])
        nonzero_violation("sigma(y0)", sigma0)
        return sigma0


@dataclass(frozen=True)
class AssumptionCheck:
    assumption: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the growth/ergodicity assumption checks for one model."""

    checks: tuple[AssumptionCheck, ...]

    def passed(self, assumption: str) -> bool:
        for check in self.checks:
            if check.assumption == assumption:
                return check.passed
        raise KeyError(assumption)


def make_heston(kappa: float, theta: float, xi: float, rho: float,
                x0: float, y0: float, *, moment_flag: bool = True) -> ModelSpec:
    """Heston model: sigma = sqrt(y), f = kappa (theta - y), g = xi sqrt(y).

    Requires kappa > 0, theta > 0, xi != 0, |rho| <= 1 and y0 > 0.  The factor
    argument is clamped at zero inside all three coefficients.
    """
    square_root_factor_violation(kappa, theta, xi)
    bound_violation("rho", rho, **CORRELATION)
    bound_violation("y0", y0, **POSITIVE)

    def fused(y, out):
        root, drift, diffusion = out
        np.maximum(y, 0.0, out=root)
        np.subtract(theta, root, out=drift)
        drift *= kappa
        np.sqrt(root, out=root)
        np.multiply(root, xi, out=diffusion)

    return ModelSpec(
        coeffs_fused=fused, rho=rho, x0=x0, y0=y0, kind="heston",
        growth=GrowthExponents(nu_sigma=0.5, nu_g=0.5, q_sigma=0.5, q_g=0.5),
        params={"kappa": kappa, "theta": theta, "xi": xi,
                "a": kappa * theta, "b": -kappa},
        clamp_y=True, finite_exp_moments=moment_flag,
    )


def make_stein_stein(a: float, b: float, c: float, rho: float,
                     x0: float, y0: float, *, moment_flag: bool = True) -> ModelSpec:
    """Stein-Stein model: sigma = y, f = a + b y, g = c (constant)."""
    nonzero_violation("c", c)
    bound_violation("rho", rho, **CORRELATION)

    def fused(y, out):
        vol, drift, diffusion = out
        np.add(y, 0.0, out=vol)
        np.multiply(y, b, out=drift)
        drift += a
        diffusion.fill(c)

    return ModelSpec(
        coeffs_fused=fused, rho=rho, x0=x0, y0=y0, kind="stein_stein",
        growth=GrowthExponents(nu_sigma=1.0, nu_g=0.0, q_sigma=1.0, q_g=0.0),
        params={"a": a, "b": b, "c": c},
        finite_exp_moments=moment_flag,
    )


def make_power_family(a: float, b: float, c_g: float, c_sigma: float,
                      nu_g: float, nu_sigma: float, rho: float,
                      x0: float, y0: float, *, moment_flag: bool = True) -> ModelSpec:
    """Power-coefficient family: f = a + b y, g = c_g y^nu_g, sigma = c_sigma y^nu_sigma.

    The exponents must satisfy nu_sigma in (0, 1] and nu_g in [0, 1 - nu_sigma];
    outside that region the tail-scaling reduction does not apply and
    construction is refused.
    """
    bound_violation("nu_sigma", nu_sigma, lo=0, hi=1, lo_strict=True)
    bound_violation("nu_g", nu_g, lo=0, hi=1 - nu_sigma)
    nonzero_violation("c_sigma", c_sigma)
    bound_violation("rho", rho, **CORRELATION)

    fractional = (nu_sigma != int(nu_sigma)) or (nu_g != int(nu_g))

    def fused(y, out):
        vol, drift, diffusion = out
        base = np.maximum(y, 0.0, out=drift) if fractional else y
        np.power(base, nu_sigma, out=vol)
        vol *= c_sigma
        np.power(base, nu_g, out=diffusion)
        diffusion *= c_g
        np.multiply(y, b, out=drift)
        drift += a

    return ModelSpec(
        coeffs_fused=fused, rho=rho, x0=x0, y0=y0, kind="power",
        growth=GrowthExponents(nu_sigma=nu_sigma, nu_g=nu_g,
                               q_sigma=nu_sigma, q_g=nu_g),
        params={"a": a, "b": b, "c_g": c_g, "c_sigma": c_sigma,
                "nu_g": nu_g, "nu_sigma": nu_sigma},
        clamp_y=fractional, finite_exp_moments=moment_flag,
    )


def make_constant_sigma(c_sigma: float, x0: float) -> ModelSpec:
    """Reference model with constant volatility and a factor frozen at 0.

    X_t is then exactly Gaussian with mean x0 - sigma^2 t / 2 and variance
    sigma^2 t, which makes this the closed-form oracle for the Monte Carlo
    engine.  The factor feeds no coefficient, so its start is no parameter.
    """
    nonzero_violation("c_sigma", c_sigma)

    def fused(y, out):
        out[0].fill(c_sigma)
        out[1].fill(0.0)
        out[2].fill(0.0)

    return ModelSpec(
        coeffs_fused=fused, rho=0.0, x0=x0, y0=0.0, kind="constant_sigma",
        growth=GrowthExponents(nu_sigma=None, nu_g=None, q_sigma=0.0, q_g=0.0),
        params={"c_sigma": c_sigma},
    )


def _is_cir_form(model: ModelSpec) -> bool:
    """True when the fast dynamics are mean-reverting with g = xi y^{q_g}, q_g in [1/2, 1)."""
    nu_g = model.growth.nu_g
    return (model.params.get("b", 0.0) < 0 < model.params.get("a", 0.0)
            and nu_g is not None and 0.5 <= nu_g < 1)


def check_assumptions(model: ModelSpec, q_h: float | None = None) -> AssumptionReport:
    """Evaluate the growth and ergodicity conditions on declared exponents.

    Checks performed (failures are report entries, never exceptions):

    - ``growth-sum``: q_sigma + q_g <= 1.
    - ``functional-growth-generic``: max(q_sigma + q_h, q_g + q_h) < 1, the
      branch for fully general fast dynamics.
    - ``functional-growth-cir``: the alternative available on mean-reverting
      power-diffusion factors, q_sigma < 1 and q_g + q_h < 2.
    - ``mean-reversion``: f = -kappa y + tau(y) with Lipschitz constant of
      tau strictly below kappa, evaluated where the drift is declared affine.

    Without ``q_h`` the two functional-growth checks fail as undeclared.
    """
    growth = model.growth
    q_sigma, q_g = growth.q_sigma, growth.q_g
    checks = []

    if q_sigma is None or q_g is None:
        checks.append(AssumptionCheck(
            "growth-sum", False, "q_sigma/q_g not declared"))
    else:
        total = q_sigma + q_g
        checks.append(AssumptionCheck(
            "growth-sum", total <= 1,
            f"q_sigma + q_g = {total:g} (need <= 1)"))

    if q_h is None or q_sigma is None or q_g is None:
        checks.append(AssumptionCheck(
            "functional-growth-generic", False, "q_h not declared"))
        checks.append(AssumptionCheck(
            "functional-growth-cir", False, "q_h not declared"))
    else:
        worst = max(q_sigma + q_h, q_g + q_h)
        checks.append(AssumptionCheck(
            "functional-growth-generic", worst < 1,
            f"max(q_sigma + q_h, q_g + q_h) = {worst:g} (need < 1)"))
        cir = _is_cir_form(model)
        ok = cir and q_sigma < 1 and (q_g + q_h) < 2
        detail = (f"q_sigma = {q_sigma:g} (need < 1), q_g + q_h = {q_g + q_h:g} (need < 2)"
                  if cir else "fast dynamics are not of mean-reverting power-diffusion form")
        checks.append(AssumptionCheck("functional-growth-cir", ok, detail))

    b = model.params.get("b")
    if b is None:
        checks.append(AssumptionCheck(
            "mean-reversion", False, "drift not declared affine in y"))
    else:
        # f = a + b y means kappa = -b and tau = a, so L_tau = 0 < kappa iff b < 0.
        checks.append(AssumptionCheck(
            "mean-reversion", b < 0,
            f"f = a + b y with b = {b:g}: L_tau = 0 < kappa = {-b:g}" if b < 0
            else f"f = a + b y with b = {b:g} >= 0 is not mean-reverting"))

    return AssumptionReport(tuple(checks))


def mdp_growth_condition(q_g: float, q_h: float, beta: float) -> bool:
    """Whether sqrt(eps) h(eps)^{(q_g + q_h - 1)/(1 - q_g)} vanishes for h = eps^{-beta}.

    Equivalent to 1/2 - beta (q_g + q_h - 1) / (1 - q_g) > 0; for q_h = 1 this
    reduces to q_g < 1 / (2 beta + 1).  The normalization h is restricted to
    the power form eps^{-beta}, beta in (0, 1/2), because every concrete regime
    of interest uses it and a general h adds nothing testable.
    """
    bound_violation("q_g", q_g, lo=0, hi=1, hi_strict=True)
    bound_violation("beta", beta, **BETA_BOUNDS)
    return 0.5 - beta * (q_g + q_h - 1) / (1 - q_g) > 0
