"""Adaptive composite Gauss-Legendre quadrature on geometric panels.

The weight functions integrated here (Gamma densities with shape below one,
speed-measure densities of power-diffusion factors) can spread their mass over
many decades and carry an integrable singularity at the left truncation point.
Nodes are therefore laid out on geometrically spaced panels between the
truncation bounds; per panel the integrand is analytic with derivatives scaled
to the panel width, so fixed-order Gauss-Legendre converges fast.  The global
order is doubled until two successive levels agree within tolerance, which
makes the reported error estimate testable.

Weights are combined with the (log-scale) density as exp(log w + log m) so
that singular densities far above or below the representable range never
appear as intermediate values.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureError


@lru_cache(maxsize=32)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def geometric_edges(y_lo: float, y_hi: float) -> np.ndarray:
    """Geometrically spaced panel edges covering [y_lo, y_hi].

    At least 16 panels, each with edge ratio at most 4; for very wide ranges
    the panel count grows like log(y_hi / y_lo).
    """
    if not (0 < y_lo < y_hi):
        raise QuadratureError(f"invalid truncation bounds [{y_lo}, {y_hi}]")
    span = math.log(y_hi / y_lo)
    n = max(16, math.ceil(span / math.log(4.0)))
    return y_lo * np.exp(span * np.arange(n + 1) / n)


def panel_nodes(edges: np.ndarray, order: int):
    """All Gauss-Legendre nodes on the panels and the log of their weights."""
    nodes, w, half = segment_nodes(edges, order)
    return nodes.ravel(), (np.log(half)[:, None] + np.log(w)[None, :]).ravel()


def integrate_logweight(fn: Callable, log_weight: Callable, edges: np.ndarray):
    """Integral of fn(y) * exp(log_weight(y)) over the panels, with doubling.

    Starts from a total budget of roughly 512 nodes spread over the panels
    (at least order 4 per panel) and doubles the per-panel order, up to 1024,
    until two successive values agree within max(1e-13, 1e-12 |I|).  Returns
    ``(value, error_estimate)`` where the estimate is the last successive
    difference.  Raises QuadratureError when the doubling never settles.
    """
    order = max(4, 512 // (len(edges) - 1))
    prev = None
    while True:
        nodes, log_w = panel_nodes(edges, order)
        contrib = fn(nodes) * np.exp(log_weight(nodes) + log_w)
        if not np.all(np.isfinite(contrib)):
            raise QuadratureError("integrand produced non-finite values")
        value = float(np.sum(contrib))
        if prev is not None:
            err = abs(value - prev)
            if err <= max(1e-13, 1e-12 * abs(value)):
                return value, err
        if order >= 1024:
            raise QuadratureError(
                f"quadrature did not converge: order {order}, "
                f"last difference {abs(value - (prev if prev is not None else np.nan)):.3e}")
        prev = value
        order *= 2


def segment_nodes(grid: np.ndarray, order: int):
    """Gauss-Legendre nodes on each segment of a sorted grid, one row per segment.

    Returns ``(nodes, w, half)``: the integral of fn over segment j is
    ``np.sum(fn(nodes) * w, axis=1)[j] * half[j]``.
    """
    x, w = _leggauss(order)
    half = 0.5 * np.diff(grid)
    mid = 0.5 * (grid[1:] + grid[:-1])
    return mid[:, None] + half[:, None] * x[None, :], w, half


def segment_cumulative(fn: Callable, grid: np.ndarray) -> np.ndarray:
    """Cumulative integral of a smooth fn along a sorted grid, by an order-16
    Gauss-Legendre rule on each segment.

    Returns F with F[0] = 0 and F[j] = integral from grid[0] to grid[j].
    """
    nodes, w, half = segment_nodes(grid, 16)
    return np.concatenate(([0.0], np.cumsum(np.sum(fn(nodes) * w, axis=1) * half)))
