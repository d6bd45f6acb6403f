"""One-dimensional Poisson equations for the fast-factor generator.

Solves L u = H - Hbar with centering int u dmu = 0, where
L h = f h' + 1/2 g^2 h'' is the generator of the fast factor and
Hbar = int H dmu.  Two routes are provided:

- the square-root factor with centered right-hand sides admits constant
  derivatives in closed form (u' = -1/(2 kappa) for H = sigma^2 / 2, and
  u' = -1/kappa for H(y) = y);
- for the mean-reverting power-diffusion family the derivative follows from
  the stationarity identity (1/2 g^2 m)' = f m of the speed-measure density m:

      u'(y) = [ 1/2 xi^2 y^{2 q_g} m(y) ]^{-1} int_0^y (H(z) - Hbar) m(z) dz
            = -[ 1/2 xi^2 y^{2 q_g} m(y) ]^{-1} int_y^inf (H(z) - Hbar) m(z) dz,

  where the second form uses the centering of H - Hbar.  Both one-sided
  integrals are computed independently so their agreement is a genuine
  consistency check rather than an identity of the implementation; since the
  left form loses precision in the upper tail (its numerator cancels there)
  and the right form symmetrically in the lower tail, the reported derivative
  takes the left form below the mass median and the right form above it.

The solve grid is geometric on the measure's truncation interval: the
derivative is a ratio of exponentially small quantities in the tails, and
geometric spacing keeps its relative error uniform.  Where 1/2 g^2 m is not
a normal float at an end of that interval (a Gamma law with shape above ~60
truncates where its log density is near -1300), the grid covers only the
part where it is, and the integrals still span the whole interval.  Near the
origin, where a Gamma density with shape below one is singular but
integrable, the inner integral starts from the truncation point with the
analytic leading-order correction (H(y_lo) - Hbar) * mass_below applied on
[0, y_lo].  u itself is recovered by cumulative trapezoid of u' plus a
centering shift; direct double integration is avoided.

Solutions are immutable and shareable; each solve is single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import POSITIVE, DomainError, GrowthError, bound_violation
from .invariant import InvariantMeasure, TabulatedRule

_GRID_POINTS = 2048


@dataclass(frozen=True)
class PoissonSolution:
    """Grid-backed solution of a centered Poisson equation.

    ``u`` and ``u_prime`` interpolate linearly between grid points and hold
    their boundary values outside the grid.  ``two_sided_gap`` is the largest
    disagreement between the left-integral and right-tail forms of u' over
    the middle half of the grid (0 for closed-form solutions).
    """

    grid: np.ndarray
    u_values: np.ndarray
    u_prime_values: np.ndarray
    closed_form: str | None
    centering_residual: float
    two_sided_gap: float = 0.0

    def u(self, y):
        return np.interp(np.asarray(y, dtype=float), self.grid, self.u_values)

    def u_prime(self, y):
        return np.interp(np.asarray(y, dtype=float), self.grid, self.u_prime_values)


def solve_phi_cir(kappa: float, theta: float, drift_coeff: float = -0.5) -> PoissonSolution:
    """Closed-form solution of L u = -drift_coeff (y - theta) for the square-root factor.

    u'(y) = drift_coeff / kappa identically; u(y) = drift_coeff (y - theta) / kappa
    is already centered because the invariant mean of the factor is theta.  The
    price dynamics have drift_coeff = -1/2 (L u = (y - theta)/2, the Phi of the
    large-time constants); the share-measure dynamics use +1/2, flipping the
    sign of u'.
    """
    bound_violation("kappa", kappa, **POSITIVE)
    bound_violation("theta", theta, **POSITIVE)
    grid = np.geomspace(max(1e-10, 1e-6 * theta), 60 * theta, _GRID_POINTS)
    return PoissonSolution(
        grid=grid, u_values=drift_coeff * (grid - theta) / kappa,
        u_prime_values=np.full_like(grid, drift_coeff / kappa),
        closed_form="heston_phi_prime" if drift_coeff == -0.5 else "cir_phi_prime_flipped",
        centering_residual=0.0)


def _solve_grid(measure: InvariantMeasure):
    """Geometric solve grid of _GRID_POINTS nodes and 1/2 g^2 m on it.

    The grid spans the measure's truncation interval or, where 1/2 g^2 m is
    not a normal float at its ends, the part between the first and last of
    those nodes where it is, since u' divides by it.
    """
    xi, q_g = measure.params["xi"], measure.params["q_g"]

    def half_g2_m(y):
        return 0.5 * xi ** 2 * y ** (2 * q_g) * np.exp(measure.log_density(y))

    tiny = np.finfo(float).tiny  # the smallest normal float
    grid = np.geomspace(measure.y_lo, measure.y_hi, _GRID_POINTS)
    values = half_g2_m(grid)
    normal = np.flatnonzero(values >= tiny)
    if 1 < len(normal) < _GRID_POINTS:
        grid = np.geomspace(grid[normal[0]], grid[normal[-1]], _GRID_POINTS)
        values = half_g2_m(grid)
    if not np.all(values >= tiny):
        raise DomainError("measure density vanished on the solve grid")
    return grid, values


def solve_poisson_cev(H: Callable, measure: InvariantMeasure, *,
                      q_h: float = 1.0) -> PoissonSolution:
    """Speed-measure solve of L u = H - Hbar for the power-diffusion factor.

    The solve grid has 2048 geometric nodes.  g = xi y^{q_g} is read from
    ``measure.params``; ``q_h`` is the declared polynomial growth bound of H,
    used for the growth guard on u'.  Raises GrowthError when |u'| at the top
    of the grid exceeds ten times the bound K (1 + y^{q_h - 1}) fitted on the
    grid interior.
    """
    grid, half_g2_m = _solve_grid(measure)
    # The rule's segments cover the whole truncation interval: those of the
    # grid, and padding where _solve_grid cut the grid short.
    rule = TabulatedRule(measure, grid)

    # Hbar is computed with the same segment rule as the cumulative integrals,
    # so the total of (H - Hbar) m over the truncated domain vanishes to
    # roundoff; the tail ratios of u' would otherwise be dominated by any
    # inconsistency between two quadrature rules.
    dens_seg = rule.segment_integrals(np.ones_like)
    h_seg = rule.segment_integrals(H)
    h_lo, h_hi = float(H(measure.y_lo)), float(H(measure.y_hi))
    total_mass = float(np.sum(dens_seg)) + measure.mass_below + measure.mass_above
    h_bar = (float(np.sum(h_seg)) + h_lo * measure.mass_below
             + h_hi * measure.mass_above) / total_mass

    seg = h_seg - h_bar * dens_seg
    # left[j] = int_0^{grid[j]}, right[j] = int_{grid[j]}^inf; the two forms
    # agree only through the centering of H - Hbar, so their gap is a real
    # consistency check of Hbar and of the truncation handling.
    on_grid = rule.grid_points
    left = np.concatenate(([0.0], np.cumsum(seg)))[on_grid]
    left += (h_lo - h_bar) * measure.mass_below
    right = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))[on_grid]
    right += (h_hi - h_bar) * measure.mass_above

    u_prime_left = left / half_g2_m
    u_prime_right = -right / half_g2_m

    quarter = _GRID_POINTS // 4
    mid = slice(quarter, 3 * quarter)
    gap = float(np.max(np.abs(u_prime_left[mid] - u_prime_right[mid])))

    # The left integral suffers cancellation in the upper tail (its numerator
    # is the full centered integral, which vanishes) and the right-tail
    # integral suffers it symmetrically in the lower tail, so the reported
    # derivative switches representation at the mass median.
    median_idx = int(np.searchsorted(np.cumsum(dens_seg), 0.5 * total_mass)) - on_grid.start
    u_prime = np.concatenate((u_prime_left[: median_idx + 1],
                              u_prime_right[median_idx + 1:]))

    growth_ref = 1.0 + grid ** (q_h - 1.0)
    k_fit = float(np.max(np.abs(u_prime[: 3 * quarter]) / growth_ref[: 3 * quarter]))
    top = abs(u_prime[-1])
    if k_fit > 0 and top > 10.0 * k_fit * growth_ref[-1]:
        raise GrowthError(
            f"|u'(y_max)| = {top:.3e} exceeds 10 x fitted bound "
            f"{k_fit:.3e} * (1 + y_max^(q_h-1))")

    u_raw = np.concatenate(([0.0], np.cumsum(
        0.5 * (u_prime[1:] + u_prime[:-1]) * np.diff(grid))))
    shift = rule.integrate(lambda y: np.interp(y, grid, u_raw)).value
    u_vals = u_raw - shift
    residual = abs(rule.integrate(lambda y: np.interp(y, grid, u_vals)).value)

    return PoissonSolution(grid=grid, u_values=u_vals, u_prime_values=u_prime,
                           closed_form=None, centering_residual=residual,
                           two_sided_gap=gap)


def generator_residuals(measure: InvariantMeasure, solution: PoissonSolution,
                        rhs: Callable) -> np.ndarray:
    """|f u' + 1/2 g^2 u'' - rhs| at each interior node of the solve grid.

    The generator is that of the measure's factor, f = kappa (theta - y) and
    g = xi y^{q_g}, with the four constants read from ``measure.params``.
    u'' comes from second-order central differences of the stored u' on the
    (generally non-uniform) grid, so the first and last nodes carry no value:
    entry j belongs to grid node j + 1.  The spacings enter the stencil scaled
    by 2^-e, with e the binary exponent of their node, so that its cubic
    denominator does not underflow on the tiny nodes of a Gamma law with small
    shape; scaling by a power of two is exact, and is undone on u''.
    """
    y = solution.grid
    up = solution.u_prime_values
    yi = y[1:-1]
    _, e = np.frexp(yi)
    h_minus = np.ldexp(yi - y[:-2], -e)
    h_plus = np.ldexp(y[2:] - yi, -e)
    u_second = np.ldexp(
        (h_minus ** 2 * up[2:] + (h_plus ** 2 - h_minus ** 2) * up[1:-1]
         - h_plus ** 2 * up[:-2]) / (h_plus * h_minus * (h_plus + h_minus)), -e)
    p = measure.params
    f = p["kappa"] * (p["theta"] - yi)
    g = p["xi"] * yi ** p["q_g"]
    return np.abs(f * up[1:-1] + 0.5 * g ** 2 * u_second
                  - np.asarray(rhs(yi), dtype=float))


def generator_residual(measure: InvariantMeasure, solution: PoissonSolution,
                       rhs: Callable) -> float:
    """Sup-norm of ``generator_residuals`` away from the ends of the solve grid.

    The outer 1/64 of interior nodes on each side are excluded, as one-sided
    stencils would be required there.
    """
    resid = generator_residuals(measure, solution, rhs)
    margin = max(1, len(resid) // 64)
    return float(np.max(resid[margin:-margin]))
