"""Closed-form large-deviations objects for the square-root model, plus
numeric Fenchel-Legendre and curvature oracles.

Large-time log-price rate function:

    Lambda(u)  = (kappa theta / xi^2) (kappa - rho xi u - d(u)),
    Lambda*(x) = u*(x) x - Lambda(u*(x)),

with u* and the domain endpoints u_{+/-} expressed through
zeta_hat = sqrt(4 kappa^2 + xi^2 - 4 kappa rho xi).  Two variants of the
radicand in d(u) are shipped:

- ``as_printed``:  d(u)^2 = (kappa - rho xi u)^2 + xi^2 u (1 - u^2);
- ``standard``:    d(u)^2 = (kappa - rho xi u)^2 + xi^2 u (1 - u).

The source material prints the cubic radicand, while the standard large-time
result for this model carries the quadratic one; under ``standard`` the
endpoints u_{+/-} are exactly the roots of the radicand, u* is the exact
maximizer of u x - Lambda(u), and the local curvature of Lambda* at its
minimum -theta/2 equals 1/q.  Neither variant is silently corrected: the
default follows the printed form and the discrepancy is surfaced by the
curvature checks, which record the passing variant.

Realised-variance side: the cumulant generating function Lambda(u, t) of the
integrated factor, its large-time limit Lambda_inf(u) =
(kappa theta / xi^2)(kappa - gamma_fn(u)) with gamma_fn(u) =
sqrt(kappa^2 - 2 xi^2 u), and the rate function
Lambda*(x) = kappa^2 (x - theta)^2 / (2 xi^2 x), whose curvature at theta is
kappa^2/(xi^2 theta), the reciprocal of the integrated-variance constant.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

from .errors import (OPEN_CORRELATION, POSITIVE, DomainError, bound_violation,
                     square_root_factor_violation)

D_VARIANTS = ("as_printed", "standard")


@dataclass(frozen=True)
class LdpHestonParams:
    """Parameters of the large-time log-price rate function.

    ``d_variant`` selects the radicand of d(u); see the module docstring.
    """

    kappa: float
    theta: float
    xi: float
    rho: float
    d_variant: str = "as_printed"

    def __post_init__(self):
        square_root_factor_violation(self.kappa, self.theta, self.xi)
        bound_violation("rho", self.rho, **OPEN_CORRELATION)
        if self.d_variant not in D_VARIANTS:
            raise DomainError(f"d_variant: must be one of {D_VARIANTS}")

    @cached_property
    def zeta_hat(self) -> float:
        return math.sqrt(4 * self.kappa ** 2 + self.xi ** 2
                         - 4 * self.kappa * self.rho * self.xi)

    # zeta_hat takes the sign of xi, so that u_minus < u_plus also for xi < 0
    @cached_property
    def u_minus(self) -> float:
        return (self.xi - 2 * self.kappa * self.rho - math.copysign(self.zeta_hat, self.xi)) \
            / (2 * self.xi * (1 - self.rho ** 2))

    @cached_property
    def u_plus(self) -> float:
        return (self.xi - 2 * self.kappa * self.rho + math.copysign(self.zeta_hat, self.xi)) \
            / (2 * self.xi * (1 - self.rho ** 2))


def _radicand(params: LdpHestonParams, u: float) -> float:
    base = (params.kappa - params.rho * params.xi * u) ** 2
    if params.d_variant == "as_printed":
        return base + params.xi ** 2 * u * (1 - u ** 2)
    return base + params.xi ** 2 * u * (1 - u)


def heston_lambda(params: LdpHestonParams, u: float) -> float:
    """Limiting cumulant generating function Lambda(u) on (u_minus, u_plus)."""
    bound_violation("u", u, lo=params.u_minus, hi=params.u_plus, lo_strict=True, hi_strict=True)
    rad = _radicand(params, u)
    if rad < 0:
        raise DomainError(f"u: radicand of d(u) is negative ({rad:g}) at u={u}")
    return params.kappa * params.theta / params.xi ** 2 \
        * (params.kappa - params.rho * params.xi * u - math.sqrt(rad))


def heston_u_star(params: LdpHestonParams, x: float) -> float:
    """The stationary point u*(x) of u x - Lambda(u), in closed form."""
    kappa, theta, xi, rho = params.kappa, params.theta, params.xi, params.rho
    inner = x ** 2 * xi ** 2 + 2 * x * kappa * theta * rho * xi + kappa ** 2 * theta ** 2
    if not inner > 0:
        raise DomainError(
            f"x: inner square root argument {inner:g} must be positive at x={x}")
    return (xi - 2 * kappa * rho
            + (kappa * theta * rho + x * xi) * params.zeta_hat / math.sqrt(inner)) \
        / (2 * xi * (1 - rho ** 2))


def heston_lambda_star(params: LdpHestonParams, x: float) -> float:
    """Large-time log-price rate function Lambda*(x) = u*(x) x - Lambda(u*(x)).

    Vanishes at the ergodic drift -theta/2, the minimum of the rate function.
    """
    u_star = heston_u_star(params, x)
    if not params.u_minus < u_star < params.u_plus:
        raise DomainError(
            f"x: maximizer u*({x:g}) = {u_star:g} falls outside "
            f"({params.u_minus:g}, {params.u_plus:g})")
    return u_star * x - heston_lambda(params, u_star)


@dataclass(frozen=True)
class RealizedVarLdp:
    """Parameters of the realised-variance cumulant/rate functions."""

    kappa: float
    theta: float
    xi: float
    y0: float

    def __post_init__(self):
        square_root_factor_violation(self.kappa, self.theta, self.xi)
        bound_violation("y0", self.y0, **POSITIVE)

    @property
    def u_max(self) -> float:
        return self.kappa ** 2 / (2 * self.xi ** 2)


def rv_mgf(params: RealizedVarLdp, u: float, t: float) -> float:
    """Cumulant generating function Lambda(u, t) = log E exp(u V_t) of the
    integrated factor V_t, for u below kappa^2 / (2 xi^2).

    Evaluated in the form log(2 g) + (kappa + g) t/2 - log(g (1 + e^{-g t})
    + kappa (1 - e^{-g t})) to stay finite for large t.
    """
    kappa, theta, xi, y0 = params.kappa, params.theta, params.xi, params.y0
    bound_violation("t", t, **POSITIVE)
    bound_violation("u", u, hi=params.u_max, hi_strict=True)
    g = math.sqrt(kappa ** 2 - 2 * xi ** 2 * u)
    e = math.exp(-g * t)
    den = g * (1 + e) + kappa * (1 - e)
    if den <= 0:
        raise DomainError(f"u: cumulant function diverged at (u={u}, t={t})")
    log_term = math.log(2 * g) + (kappa + g) * t / 2 - (g * t + math.log(den))
    return 2 * kappa * theta / xi ** 2 * log_term \
        + 2 * u * y0 * (1 - e) / den


def rv_lambda_inf(params: RealizedVarLdp, u: float) -> float:
    """Large-time limit Lambda_inf(u) = (kappa theta / xi^2)(kappa - sqrt(kappa^2 - 2 xi^2 u))."""
    bound_violation("u", u, hi=params.u_max, hi_strict=True)
    g = math.sqrt(params.kappa ** 2 - 2 * params.xi ** 2 * u)
    return params.kappa * params.theta / params.xi ** 2 * (params.kappa - g)


def rv_lambda_star(params: RealizedVarLdp, x: float) -> float:
    """Realised-variance rate function kappa^2 (x - theta)^2 / (2 xi^2 x), x > 0."""
    bound_violation("x", x, **POSITIVE)
    return params.kappa ** 2 * (x - params.theta) ** 2 / (2 * params.xi ** 2 * x)


def rv_mdp_exponent(params: RealizedVarLdp, x: float) -> float:
    """Realised-variance moderate-deviations exponent -J_V(x) = -kappa^2 x^2 / (2 xi^2 theta)."""
    return -params.kappa ** 2 * x ** 2 / (2 * params.xi ** 2 * params.theta)


def fenchel_legendre_numeric(fn: Callable[[float], float], u_lo: float,
                             u_hi: float, x: float) -> tuple[float, float]:
    """sup_u { u x - fn(u) } for convex differentiable fn on (u_lo, u_hi).

    Safeguarded Newton iteration on fn'(u) = x with bisection fallback inside
    the bracket [u_lo + eps_b, u_hi - eps_b], eps_b = 1e-10 (u_hi - u_lo);
    fn' is the central difference of fn with step 1e-7 max(u_hi - u_lo, 1).
    Returns (value, maximizing u).  Raises DomainError when fn' never reaches
    x on the domain (the supremum then sits at the boundary).
    """
    if not u_lo < u_hi:
        raise DomainError(f"domain: need u_lo < u_hi, got [{u_lo}, {u_hi}]")
    width = u_hi - u_lo
    eps_b = 1e-10 * width
    dom_lo, dom_hi = u_lo + eps_b, u_hi - eps_b

    h0 = 1e-7 * max(width, 1.0)

    def fprime(u):
        # clip the probe so the stencil stays inside the open domain
        u = min(max(u, dom_lo + 2 * h0), dom_hi - 2 * h0)
        return (fn(u + h0) - fn(u - h0)) / (2 * h0)

    if fprime(dom_lo) - x > 0 or fprime(dom_hi) - x < 0:
        raise DomainError(
            f"x: fn' does not attain {x:g} on ({u_lo:g}, {u_hi:g}); "
            "no interior maximizer")

    lo, hi = dom_lo, dom_hi
    u = 0.5 * (lo + hi)
    for _ in range(200):
        g_u = fprime(u) - x
        if g_u > 0:
            hi = u
        else:
            lo = u
        if hi - lo <= 1e-13 * max(1.0, abs(u)):
            break
        h = min(1e-5 * max(abs(u), 1.0), 0.25 * (dom_hi - u), 0.25 * (u - dom_lo))
        slope = (fprime(u + h) - fprime(u - h)) / (2 * h) if h > 0 else 0.0
        step = u - g_u / slope if slope > 0 and math.isfinite(slope) else math.nan
        u = step if lo < step < hi else 0.5 * (lo + hi)
    u = 0.5 * (lo + hi)
    return u * x - fn(u), u


def curvature(fn: Callable[[float], float], x0: float) -> float:
    """Second derivative by five-point central differences, one Richardson pass.

    Step h = 1e-4 * max(1, |x0|); samples stay within [x0 - 2h, x0 + 2h].
    Exact for quadratics.
    """

    def five_point(h: float) -> float:
        return (-fn(x0 - 2 * h) + 16 * fn(x0 - h) - 30 * fn(x0)
                + 16 * fn(x0 + h) - fn(x0 + 2 * h)) / (12 * h ** 2)

    h = 1e-4 * max(1.0, abs(x0))
    coarse = five_point(h)
    fine = five_point(h / 2)
    return (16 * fine - coarse) / 15.0


def curvature_identity(params: LdpHestonParams,
                       q: float) -> tuple[dict[str, float], str | None]:
    """Residuals |curvature(Lambda*, -theta/2) * q - 1| under each d variant.

    The large-time MDP rate (x + theta/2)^2 / (2 q) is the quadratic of
    Lambda* at its minimum, so the residual of a consistent variant vanishes.
    Returns the residual per variant (``params.d_variant`` is ignored) and the
    first variant within 1e-3, or None.
    """
    residuals = {}
    for variant in D_VARIANTS:
        p_v = replace(params, d_variant=variant)
        curv = curvature(lambda x: heston_lambda_star(p_v, x), -params.theta / 2)
        residuals[variant] = abs(curv * q - 1.0)
    return residuals, next((v for v in D_VARIANTS if residuals[v] <= 1e-3), None)
