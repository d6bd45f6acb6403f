"""Invariant measures of the fast factor process and quadrature against them.

For the mean-reverting square-root factor dY = kappa (theta - Y) dt
+ xi sqrt(Y) dZ the invariant measure is the Gamma law with shape
2 kappa theta / xi^2 and rate 2 kappa / xi^2, available in closed form.  For
the wider power-diffusion family g(y) = xi y^{q_g}, q_g in [1/2, 1), the
invariant density is proportional to the speed measure

    m(y) ~ (xi^2 y^{2 q_g})^{-1} exp( int_1^y 2 kappa (theta - z) / (xi^2 z^{2 q_g}) dz ),

whose inner exponent is evaluated numerically with the anchor point at 1 and
which is then normalized by quadrature.  The numeric construction at
q_g = 1/2 reproduces the closed-form Gamma density and serves as its oracle.

Quadrature uses composite Gauss-Legendre on geometrically spaced panels over
a truncated domain [y_lo, y_hi]; the truncation bounds are placed so that the
untruncated mass is below 1e-13 wherever floating-point range permits, and the
remaining boundary mass enters integrals through a leading-order correction
term.  The Gamma bounds are quantiles.  The speed-measure bounds (q_g > 1/2)
come from one outward walk from theta on each side, which accumulates
log m(y) - log m(theta) one Gauss-Legendre panel per step and stops where it
falls 36 below zero.  The per-panel order of the integration rule is doubled
until two successive values agree, so every integral is returned together
with an error estimate.

Measures are immutable after construction; ``integrate`` is pure and
thread-safe with a fixed summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import GrowthError, QuadratureError, bound_violation, square_root_factor_violation
from .quadrature import (_leggauss, geometric_edges, integrate_logweight,
                         segment_cumulative, segment_nodes)

# Smallest usable left truncation point: keeps (shape-1) * log(y_lo) inside
# the exponent range of float64 for every shape in (0, 1).
_Y_FLOOR = 1e-290
_TAIL_MASS = 1e-13


class IntegralResult(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class InvariantMeasure:
    """A probability density on (0, infinity) with its quadrature rule.

    ``log_density`` is the log of the normalized density, vectorized over
    numpy arrays of positive points.  ``edges`` are the panel edges of the
    truncated quadrature domain; ``mass_below``/``mass_above`` estimate the
    mass outside it and enter integrals as boundary corrections.
    """

    kind: str                      # "gamma" or "speed"
    log_density: Callable[[np.ndarray], np.ndarray]
    y_lo: float
    y_hi: float
    edges: np.ndarray
    mass_below: float
    mass_above: float
    shape: float | None = None
    rate: float | None = None
    params: Mapping[str, float] = field(default_factory=dict)


def _gamma_truncation(shape: float, rate: float,
                      theta: float) -> tuple[float, float, float, float]:
    """Truncation bounds of the Gamma(shape, rate) law and the mass beyond each.

    Returns (y_lo, y_hi, mass_below, mass_above).  Quantiles are
    gammaincinv(shape, q) * (1 / rate), the float operations of
    scipy.stats.gamma(shape, scale=1/rate).ppf(q).  y_hi leaves mass 1e-12
    above it.  The left point is the one below which at most _TAIL_MASS sits,
    capped by the coarse default max(1e-10, 1e-6 theta) and floored at the
    representable limit; the floor only binds for extreme shapes, where the
    remaining mass is restored by the boundary correction.
    """
    from scipy.special import gammainc, gammaincc, gammaincinv

    scale = 1.0 / rate
    y_hi = float(gammaincinv(shape, 1 - 1e-12) * scale)
    q_lo = float(gammaincinv(shape, _TAIL_MASS) * scale)
    y_lo = max(_Y_FLOOR, min(max(1e-10, 1e-6 * theta), q_lo))
    return (y_lo, y_hi, float(gammainc(shape, rate * y_lo)),
            float(gammaincc(shape, rate * y_hi)))


def gamma_invariant(kappa: float, theta: float, xi: float) -> InvariantMeasure:
    """Closed-form Gamma invariant measure of the square-root factor.

    Density m(y) = rate^shape / Gamma(shape) * y^{shape-1} exp(-rate y) with
    shape = 2 kappa theta / xi^2 and rate = 2 kappa / xi^2.
    """
    square_root_factor_violation(kappa, theta, xi)
    from scipy.special import gammaln

    shape = 2 * kappa * theta / xi ** 2
    rate = 2 * kappa / xi ** 2
    y_lo, y_hi, mass_below, mass_above = _gamma_truncation(shape, rate, theta)
    if not y_lo < y_hi:
        raise QuadratureError(f"degenerate truncation [{y_lo}, {y_hi}]")

    log_norm = shape * math.log(rate) - gammaln(shape)

    def log_density(y):
        y = np.asarray(y, dtype=float)
        return log_norm + (shape - 1) * np.log(y) - rate * y

    return InvariantMeasure(
        kind="gamma", log_density=log_density, y_lo=y_lo, y_hi=y_hi,
        edges=geometric_edges(y_lo, y_hi),
        mass_below=mass_below, mass_above=mass_above,
        shape=shape, rate=rate,
        params={"kappa": kappa, "theta": theta, "xi": xi, "q_g": 0.5},
    )


def speed_measure(kappa: float, theta: float, xi: float, q_g: float) -> InvariantMeasure:
    """Invariant measure of dY = kappa (theta - Y) dt + xi Y^{q_g} dZ by speed measure.

    The unnormalized density is (xi^2 y^{2 q_g})^{-1} exp(I(y)) with inner
    exponent I(y) = int_1^y 2 kappa (theta - z) / (xi^2 z^{2 q_g}) dz evaluated
    by cumulative Gauss-Legendre segments on 4096 log-spaced knots anchored at
    1 and splined in log y; the normalizing constant comes from the adaptive
    panel rule.  At q_g = 1/2 the result agrees with ``gamma_invariant`` and
    is its numeric oracle, and takes its truncation from the Gamma quantiles.

    For q_g > 1/2 the truncation comes from two outward walks from theta over
    d(y) = log m(y) - log m(theta) = -2 q_g log(y / theta) + int_theta^y of the
    exponent integrand.  The left walk halves y_lo, and the right one starts
    at max(2 theta, 1) and multiplies y_hi by 1.5; each stops at the first
    point where d <= -36 or a range limit is reached.  Each step adds one
    order-16 panel over the stretch it covers to the running integral, and
    the first right stretch, theta to max(2 theta, 1), is split into panels
    of edge ratio at most 2.  The knot table, the spline, the normalizer and
    the one-term Laplace tail masses are computed once, for the bounds found.
    """
    bound_violation("q_g", q_g, lo=0.5, hi=1, hi_strict=True)
    square_root_factor_violation(kappa, theta, xi)

    def exponent_integrand(z):
        return 2 * kappa * (theta - z) / (xi ** 2 * z ** (2 * q_g))

    gamma_like = q_g == 0.5
    if gamma_like:
        y_lo, y_hi, mass_below, mass_above = _gamma_truncation(
            2 * kappa * theta / xi ** 2, 2 * kappa / xi ** 2, theta)
    else:
        # Superexponential decay on both sides: expand until the log of the
        # unnormalized density falls 36 below its value at theta (relative
        # density about 2e-16, leaving untruncated mass far below 1e-13 while
        # keeping the density representable for ratio-based consumers).
        nodes, weights = _leggauss(16)

        def panel(a, b):
            # int_a^b of the exponent integrand, one order-16 panel
            half = 0.5 * (b - a)
            return half * float(exponent_integrand(0.5 * (a + b) + half * nodes) @ weights)

        def decay(y, integral):
            # log m(y) - log m(theta), given integral = int_theta^y
            return -2 * q_g * math.log(y / theta) + integral

        y_lo, below = theta, 0.0
        while decay(y_lo, below) > -36 and y_lo > _Y_FLOOR * 10:
            below += panel(y_lo, y_lo / 2.0)
            y_lo /= 2.0
        y_hi = max(2 * theta, 1.0)
        # the first stretch, theta to y_hi, in panels of edge ratio at most 2
        stretch = np.geomspace(theta, y_hi, math.ceil(math.log2(y_hi / theta)) + 1)
        above = sum(map(panel, stretch[:-1], stretch[1:]))
        while decay(y_hi, above) > -36 and y_hi < 1e12:
            above += panel(y_hi, 1.5 * y_hi)
            y_hi *= 1.5
        mass_below = mass_above = None  # one-term Laplace estimates, set below

    # Exponent on a log-spaced knot grid (anchor 1 inserted), spline in log y.
    knots = np.geomspace(y_lo, y_hi, 4096)
    if not (knots[0] <= 1.0 <= knots[-1]):
        knots = np.sort(np.unique(np.concatenate([knots, [1.0]])))
    cum = segment_cumulative(exponent_integrand, knots)
    anchor = int(np.searchsorted(knots, 1.0))
    if abs(knots[anchor] - 1.0) > 1e-9:
        # anchor not on the grid: shift by the integral from 1 to the nearest knot
        shift = segment_cumulative(exponent_integrand, np.array([1.0, knots[anchor]]))[-1]
    else:
        shift = 0.0
    exponent = cum - cum[anchor] + shift
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(np.log(knots), exponent)

    log_scale = -math.log(xi ** 2)

    def log_unnormalized(y):
        log_y = np.log(np.asarray(y, dtype=float))
        return log_scale - 2 * q_g * log_y + spline(log_y)

    edges = geometric_edges(y_lo, y_hi)
    norm, _ = integrate_logweight(lambda y: np.ones_like(y), log_unnormalized, edges)
    if not (norm > 0 and math.isfinite(norm)):
        raise QuadratureError("speed-measure normalizing constant did not converge")
    log_norm = math.log(norm)

    def log_density(y):
        return log_unnormalized(y) - log_norm

    if mass_below is None:
        # one-term Laplace estimate m(y) / |d log m / dy| of the mass beyond
        # each truncation point, where the density decays superexponentially
        def tail_mass(point: float) -> float:
            h = 1e-6 * point
            slope = float(log_density(np.asarray([point + h]))[0]
                          - log_density(np.asarray([point - h]))[0]) / (2 * h)
            dens = math.exp(float(log_density(np.asarray([point]))[0]))
            return dens / max(abs(slope), 1e-300)

        mass_below = tail_mass(y_lo)
        mass_above = tail_mass(y_hi)

    return InvariantMeasure(
        kind="speed", log_density=log_density, y_lo=y_lo, y_hi=y_hi,
        edges=edges, mass_below=mass_below, mass_above=mass_above,
        shape=None, rate=None,
        params={"kappa": kappa, "theta": theta, "xi": xi, "q_g": q_g},
    )


def integrate(measure: InvariantMeasure, phi: Callable) -> IntegralResult:
    """Quadrature value and error estimate of int phi dmu.

    phi must be evaluable on the quadrature nodes with at most polynomial
    growth; if |phi(y_hi)| * mass_above exceeds the budget 1e-9 the integral
    cannot be trusted and a GrowthError is raised.  The panel rule doubles
    its order until two values agree within max(1e-13, 1e-12 |I|).  Boundary
    mass outside the truncated domain enters through the leading-order
    corrections phi(y_lo) * mass_below and phi(y_hi) * mass_above.
    """
    phi_hi = float(np.atleast_1d(phi(np.asarray([measure.y_hi])))[0])
    phi_lo = float(np.atleast_1d(phi(np.asarray([measure.y_lo])))[0])
    if not (math.isfinite(phi_hi) and math.isfinite(phi_lo)):
        raise QuadratureError("integrand is not finite at the truncation bounds")
    tail_term = abs(phi_hi) * measure.mass_above
    if tail_term > 1e-9:
        raise GrowthError(
            f"integrand tail |phi(y_hi)| * mass_above = {tail_term:.3e} "
            "exceeds the tolerance budget 1.0e-09")

    def fn(y):
        return np.asarray(phi(y), dtype=float)

    value, err = integrate_logweight(fn, measure.log_density, measure.edges)
    value += phi_lo * measure.mass_below + phi_hi * measure.mass_above
    return IntegralResult(value, err + tail_term)


class TabulatedRule:
    """Integrals against a measure of functions only piecewise smooth across a grid.

    Linear interpolants of grid-backed solutions have kinks at the grid nodes;
    aligning the quadrature segments with the grid keeps per-segment
    Gauss-Legendre spectrally accurate.  A grid narrower than the measure's
    truncated domain is padded outward geometrically (integrands are expected
    to extrapolate, as numpy interpolants do by holding boundary values);
    boundary masses enter as in ``integrate``.  The density is evaluated once,
    at construction, on the order-8 and order-16 nodes, and every integral
    reuses it; the order-8 value gives the error estimate.
    """

    def __init__(self, measure: InvariantMeasure, grid: np.ndarray):
        grid = np.asarray(grid, dtype=float)
        below = above = np.empty(0)
        if grid[0] > measure.y_lo * (1 + 1e-12):
            below = np.geomspace(measure.y_lo, grid[0], 65)[:-1]
        if grid[-1] < measure.y_hi * (1 - 1e-12):
            above = np.geomspace(grid[-1], measure.y_hi, 65)[1:]
        full = np.concatenate((below, grid, above))
        self.measure = measure
        self.ends = full[[0]], full[[-1]]
        # where the points of ``grid`` sit among the padded segment ends
        self.grid_points = slice(len(below), len(below) + len(grid))
        self.coarse, self.fine = (
            (nodes, np.exp(measure.log_density(nodes)), w, half)
            for nodes, w, half in (segment_nodes(full, order) for order in (8, 16)))

    @staticmethod
    def _segments(fn: Callable, level) -> np.ndarray:
        nodes, dens, w, half = level
        return np.sum(np.asarray(fn(nodes), dtype=float) * dens * w, axis=1) * half

    def segment_integrals(self, fn: Callable) -> np.ndarray:
        """Integral of fn dmu over each padded segment, by the order-16 rule."""
        return self._segments(fn, self.fine)

    def integrate(self, fn: Callable) -> IntegralResult:
        """Integral of fn dmu, with the order-16 value's distance from the
        order-8 one as its error."""
        coarse, value = (float(np.sum(self._segments(fn, level)))
                         for level in (self.coarse, self.fine))
        f_lo, f_hi = (float(np.atleast_1d(fn(end))[0]) for end in self.ends)
        return IntegralResult(
            value + (f_lo * self.measure.mass_below + f_hi * self.measure.mass_above),
            abs(value - coarse))


def measure_moments(measure: InvariantMeasure) -> tuple[float, float]:
    """Mean and variance of the measure, each moment integrated once."""
    mean = integrate(measure, lambda y: y).value
    return mean, integrate(measure, lambda y: y ** 2).value - mean ** 2
