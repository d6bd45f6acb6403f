"""Moderate-deviations rate functions and their variational minimizers.

All rate functionals here are quadratic actions over absolutely continuous
paths started at zero:

- small-time, two components:
  S(phi, psi) = (2 (1 - rho^2))^{-1} int [ (phi'/sigma0)^2
                - 2 rho phi' psi' / (sigma0 g0) + (psi'/g0)^2 ] dt;
- small-time, one component (its contraction onto the first coordinate):
  I(phi) = (2 sigma0^2)^{-1} int phi'^2 dt;
- large-time: the contraction onto the endpoint of the action with constant
  drift alpha and variance q is J(x) = (x - alpha T)^2 / (2 q T).

Paths are discretized by forward differences on a uniform grid with a
rectangle/trapezoid sum of the Lagrangian over the intervals; this keeps every
Euler-Lagrange system tridiagonal and the grid-convergence order testable, and
it makes the contraction identities exact at the discrete level.  An infinite
rate is reported as the exact float('inf') sentinel, never as an overflow.

The large-time constants are

    alpha = zeta * c * int sigma^2 dmu         (c = x_drift_coeff, -1/2 here),
    q     = int [ sigma^2 + (Phi' g)^2 + 2 rho sigma g Phi' ] dmu,

with Phi the centered solution of L Phi = -c (sigma^2 - int sigma^2 dmu); for
the square-root factor q has the closed form
theta (1 + xi^2/(4 kappa^2) - rho xi / kappa), which is exposed alongside the
quadrature value.  For integrated functionals the variance constant is
Qbar = gamma^{-2} int |u_y g|^2 dmu with u the centered solution of
L u = H - Hbar.

All operations are pure; batch evaluation over parameter grids may run in
parallel provided reductions keep a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (OPEN_CORRELATION, POSITIVE, SingularSystemError, bound_violation,
                     nonzero_violation)
from .invariant import InvariantMeasure, TabulatedRule, integrate
from .families import family
from .models import ModelSpec
from .paths import DiscretePath, require_same_grid
from .poisson import PoissonSolution, solve_phi_cir

INFINITE_RATE = float("inf")


@dataclass(frozen=True)
class LargeTimeParams:
    """Drift and variance constants (alpha, q) of the large-time quadratic rate.

    ``q_closed_form`` carries the square-root-factor closed form, set by
    ``heston_large_time_params``, to cross-check the quadrature value.
    """

    alpha: float
    q: float
    q_closed_form: float | None = None


class QbarResult(NamedTuple):
    value: float
    degenerate: bool


def _integrate_with_solution(measure: InvariantMeasure,
                             solution: PoissonSolution, integrand) -> float:
    """Integrate an expression involving a Poisson solution against the measure.

    Grid-backed solutions are piecewise linear, so the quadrature segments are
    aligned with the solve grid; closed-form solutions are smooth and use the
    measure's own panel rule.
    """
    if solution.closed_form is None:
        return TabulatedRule(measure, solution.grid).integrate(integrand).value
    return integrate(measure, integrand).value


def _forward_diff(path: DiscretePath) -> np.ndarray:
    return np.diff(path.values, axis=0) / path.dt


def _check_small_time(sigma0: float, g0: float, rho: float) -> None:
    """sigma0 != 0, g0 != 0 and |rho| < 1 of the two-component action, in that order."""
    nonzero_violation("sigma0", sigma0)
    nonzero_violation("g0", g0)
    bound_violation("rho", rho, **OPEN_CORRELATION)


def small_time_rate_2d(sigma0: float, g0: float, rho: float,
                       phi: DiscretePath, psi: DiscretePath) -> float:
    """Two-component small-time action of (phi, psi); inf unless both start at 0."""
    _check_small_time(sigma0, g0, rho)
    require_same_grid(phi, psi)
    if not (phi.starts_at_zero() and psi.starts_at_zero()):
        return INFINITE_RATE
    dphi = _forward_diff(phi)
    dpsi = _forward_diff(psi)
    lagrangian = ((dphi / sigma0) ** 2
                  - 2 * rho * dphi * dpsi / (sigma0 * g0)
                  + (dpsi / g0) ** 2)
    return float(np.sum(lagrangian) * phi.dt / (2 * (1 - rho ** 2)))


def small_time_rate_1d(sigma0: float, phi: DiscretePath) -> float:
    """One-component small-time action (2 sigma0^2)^{-1} int phi'^2 dt.

    sigma0 is the spot volatility level, ``model.spot_sigma()``.
    """
    nonzero_violation("sigma0", sigma0)
    if not phi.starts_at_zero():
        return INFINITE_RATE
    dphi = _forward_diff(phi)
    return float(np.sum(dphi ** 2) * phi.dt / (2 * sigma0 ** 2))


def large_time_params(model: ModelSpec, measure: InvariantMeasure,
                      poisson_phi: PoissonSolution, zeta: float) -> LargeTimeParams:
    """Large-time MDP constants from the invariant measure and Poisson solution.

    alpha = zeta * x_drift_coeff * int sigma^2 dmu and
    q = int [sigma^2 + (Phi' g)^2 + 2 rho sigma g Phi'] dmu.  The q integrand
    needs only Phi'; centering of Phi does not enter.
    """
    def sigma2(y):
        return model.coefficients(y)[0] ** 2

    sig2_bar = integrate(measure, sigma2).value
    alpha = zeta * model.x_drift_coeff * sig2_bar

    def q_integrand(y):
        s, _, g = model.coefficients(y)
        phi_p = poisson_phi.u_prime(y)
        return s ** 2 + (phi_p * g) ** 2 + 2 * model.rho * s * g * phi_p

    q = _integrate_with_solution(measure, poisson_phi, q_integrand)
    return LargeTimeParams(alpha=alpha, q=q)


def heston_large_time_params(model: ModelSpec, zeta: float = 0.0) -> LargeTimeParams:
    """Square-root-factor pipeline: Gamma measure + constant-derivative Phi + constants,
    with q_closed_form (its rho term flips sign under the share measure)."""
    heston = family(model)
    kappa, theta, xi = heston.square_root_factor()
    phi = solve_phi_cir(kappa, theta, drift_coeff=model.x_drift_coeff)
    lt = large_time_params(model, heston.invariant(), phi, zeta)
    sign = 1.0 if model.x_drift_coeff < 0 else -1.0
    return replace(lt, q_closed_form=theta * (1 + xi ** 2 / (4 * kappa ** 2)
                                              - sign * model.rho * xi / kappa))


def qbar_integrated(model: ModelSpec, measure: InvariantMeasure,
                    poisson_u: PoissonSolution, gamma: float) -> QbarResult:
    """Variance constant Qbar = gamma^{-2} int |u_y(y) g(y)|^2 mu(dy).

    ``poisson_u`` solves L u = H - Hbar for the integrated functional H, which
    enters only through it.  Returns the value together with a degeneracy
    flag raised when Qbar falls below 1e-14 (the quadratic rate is then
    meaningless for this H).
    """
    bound_violation("gamma", gamma, **POSITIVE)

    def integrand(y):
        return (poisson_u.u_prime(y) * model.coefficients(y)[2]) ** 2

    value = _integrate_with_solution(measure, poisson_u, integrand) / gamma ** 2
    return QbarResult(value=value, degenerate=value < 1e-14)


def _solve_tridiagonal(lower, diag, upper, rhs):
    from scipy.linalg import solve_banded

    n = len(diag)
    ab = np.zeros((3, n))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    try:
        return solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - both callers solve a
        # nonsingular Laplacian: with two Dirichlet ends in minimize_endpoint, and
        # with one natural end in contract_two_to_one
        raise SingularSystemError(str(exc)) from exc


def minimize_endpoint(q: float, alpha: float, x_target: float,
                      horizon: float, n_steps: int) -> tuple[float, DiscretePath]:
    """Endpoint-pinned minimizer of 1/2 int u^2 dt subject to phi' = alpha + sqrt(q) u.

    Solves the discrete Euler-Lagrange system (a tridiagonal Laplacian in the
    interior path values with phi_0 = 0 and phi_N = x_target) and returns the
    attained action together with the minimizing path.  For constant
    coefficients the minimum is (x_target - alpha T)^2 / (2 q T) and the path
    is the straight line, which the discretization reproduces exactly.
    """
    bound_violation("q", q, **POSITIVE)
    bound_violation("n_steps", n_steps, lo=2)
    bound_violation("horizon", horizon, **POSITIVE)
    n_int = n_steps - 1
    lower = -np.ones(n_int - 1)
    diag = 2.0 * np.ones(n_int)
    upper = -np.ones(n_int - 1)
    rhs = np.zeros(n_int)
    rhs[-1] = x_target
    interior = _solve_tridiagonal(lower, diag, upper, rhs)
    values = np.concatenate(([0.0], interior, [x_target]))
    path = DiscretePath(np.linspace(0.0, horizon, n_steps + 1), values)
    d = _forward_diff(path)
    action = float(np.sum((d - alpha) ** 2) * path.dt / (2 * q))
    return action, path


def contract_two_to_one(sigma0: float, g0: float, rho: float,
                        phi: DiscretePath) -> tuple[float, DiscretePath]:
    """Minimize the two-component action over the second path, first one fixed.

    Solves the tridiagonal Euler-Lagrange system for psi (zero start, free
    end) and returns the minimum with its minimizer.  The discrete stationarity
    condition is psi' = rho (g0 / sigma0) phi' on every interval, so the
    minimum coincides with the one-component rate of phi.
    """
    _check_small_time(sigma0, g0, rho)
    slope = rho * g0 / sigma0
    values = phi.values
    n = phi.n_steps
    # Unknowns psi_1..psi_n; rows 1..n-1 are the interior stationarity
    # equations, row n the natural boundary condition at the free end.
    diag = np.concatenate((2.0 * np.ones(n - 1), [1.0]))
    lower = -np.ones(n - 1)
    upper = -np.ones(n - 1)
    rhs = np.empty(n)
    rhs[: n - 1] = -slope * (values[2:] - 2 * values[1:-1] + values[:-2])
    rhs[-1] = slope * (values[-1] - values[-2])
    psi_vals = np.concatenate(([0.0], _solve_tridiagonal(lower, diag, upper, rhs)))
    psi = DiscretePath(phi.times, psi_vals)
    return small_time_rate_2d(sigma0, g0, rho, phi, psi), psi


def share_large_time_params(model: ModelSpec, zeta: float = 0.0) -> LargeTimeParams:
    """Large-time constants of the share-measure dynamics (q^Q route)."""
    return heston_large_time_params(family(model).share_measure(), zeta)


def endpoint_rate(q: float, x: float, alpha: float = 0.0) -> float:
    """Closed-form endpoint contraction (x - alpha T)^2 / (2 q T) at horizon T = 1."""
    bound_violation("q", q, **POSITIVE)
    return (x - alpha) ** 2 / (2 * q)
