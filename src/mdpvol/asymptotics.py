"""Closed-form asymptotic exponents for option prices and tail probabilities.

Each quote is the leading exponent of a price or probability under one of the
normalizations used by the moderate/large deviations regimes:

- small-time calls: log E(e^{X_t} - e^{k_t})_+ / h(t)^2 -> -k^2 / (2 sigma0^2);
- large-time puts: the two-scale expansion x - t^{beta - 1/2} J(x) for x < 0
  (and plain x for x >= 0) at speed t^{1/2 + beta}, returned as the pair
  (leading, correction) so the mixed speeds stay explicit;
- large-time calls: -J^Q(x) for x > 0 at speed t^{2 beta}, with J^Q the
  endpoint rate under the share measure (density e^{X_t});
- realised-variance options: the large-deviations quote x - Lambda*(x) at
  speed t and the moderate-deviations quote -J_V(x) at speed t^{2 beta}
  (after removing the x t^{1/2 - beta} drift term);
- power-family tails: -x^2 / (2 sigma(y0)^2 t).

Endpoint contractions fix the horizon T = 1 throughout.  All functions are
pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BETA_BOUNDS, POSITIVE, DomainError, bound_violation
from .families import family
from .ldp import RealizedVarLdp, rv_lambda_star, rv_mdp_exponent
from .models import ModelSpec
from .rates import LargeTimeParams, endpoint_rate


@dataclass(frozen=True)
class AsymptoticQuote:
    """One asymptotic exponent with the strike it is evaluated at and its speed."""

    regime: str
    exponent_value: float
    strike: float
    speed: str


def smalltime_call_exponent(model: ModelSpec, k: float) -> float:
    """Small-time call exponent -k^2 / (2 sigma^2(y0)) for k > 0.

    Requires the model's declared finite-exponential-moment flag; without it
    call prices need not be finite and no quote is emitted.
    """
    bound_violation("k", k, **POSITIVE)
    if not model.finite_exp_moments:
        raise DomainError(
            "model: declared finite-exponential-moment flag is required; "
            "exponential moments of the price must be finite for small times")
    return -k ** 2 / (2 * model.spot_sigma() ** 2)


def largetime_put_quote(params: LargeTimeParams, x: float, beta: float,
                        t: float) -> tuple[float, float]:
    """Two-scale put quote (leading, correction) at speed t^{1/2 + beta}.

    For x < 0 the pair is (x, -t^{beta - 1/2} J(x)) with J(x) = x^2 / (2 q)
    (horizon 1); for x >= 0 the correction vanishes.
    """
    bound_violation("beta", beta, **BETA_BOUNDS)
    bound_violation("t", t, **POSITIVE)
    if x >= 0:
        return x, 0.0
    correction = -t ** (beta - 0.5) * endpoint_rate(params.q, x)
    return x, correction


def largetime_call_exponent(x: float, q_share: float) -> float:
    """Large-time call exponent: -x^2 / (2 q^Q) for x > 0 and 0 for x <= 0.

    q^Q is the large-time variance constant of the share-measure dynamics
    (``share_large_time_params(model).q``); the horizon is 1.
    """
    if x <= 0:
        return 0.0
    return -endpoint_rate(q_share, x)


def rv_option_quotes(params: RealizedVarLdp, x: float, beta: float,
                     t: float) -> tuple[float, float]:
    """Realised-variance option quotes (large-deviations, moderate-deviations).

    ldp_quote = x - Lambda*(x) at speed t; mdp_quote = -J_V(x) =
    -kappa^2 x^2 / (2 xi^2 theta) at speed t^{2 beta}, after removal of the
    x t^{1/2 - beta} drift term.  Both require x > 0.
    """
    bound_violation("x", x, **POSITIVE)
    bound_violation("beta", beta, **BETA_BOUNDS)
    bound_violation("t", t, **POSITIVE)
    return x - rv_lambda_star(params, x), rv_mdp_exponent(params, x)


def quote_catalog(model: ModelSpec, lt: LargeTimeParams, q_share: float,
                  k: float, x: float, x_rv: float, beta: float,
                  t: float) -> list[AsymptoticQuote]:
    """Every asymptotic quote for a model with a square-root factor (seven, in
    a fixed order), each with the strike it is evaluated at."""
    leading, correction = largetime_put_quote(lt, -abs(x), beta, t)
    rv = RealizedVarLdp(*family(model).square_root_factor(), model.y0)
    quotes = [
        AsymptoticQuote("small_time_call", smalltime_call_exponent(model, k),
                        k, "h(t)^2 = t^(-2*beta)"),
        AsymptoticQuote("large_time_put_leading", leading, -abs(x), "t^(1/2+beta)"),
        AsymptoticQuote("large_time_put_correction", correction, -abs(x),
                        "t^(1/2+beta)"),
        AsymptoticQuote("large_time_call", largetime_call_exponent(abs(x), q_share),
                        abs(x), "t^(2*beta)"),
    ]
    ldp_quote, mdp_quote = rv_option_quotes(rv, x_rv, beta, t)
    x_tail = abs(x) + abs(model.x0) + 0.2
    return quotes + [
        AsymptoticQuote("rv_option_ldp", ldp_quote, x_rv, "t"),
        AsymptoticQuote("rv_option_mdp", mdp_quote, x_rv, "t^(2*beta)"),
        AsymptoticQuote("tail_probability", tail_probability_exponent(model, x_tail, t),
                        x_tail, "h^2"),
    ]


def tail_probability_exponent(model: ModelSpec, x: float, t: float) -> float:
    """Power-family tail exponent -x^2 / (2 sigma(y0)^2 t) for x above the start.

    Valid for models with sigma = c_sigma y^{nu_sigma}, g = c_g y^{nu_g} and
    nu_g <= 1 - nu_sigma; the spot level sigma(y0) enters squared.
    """
    growth = model.growth
    if growth.nu_sigma is None or growth.nu_g is None:
        raise DomainError("model: power exponents nu_sigma/nu_g must be declared")
    bound_violation("nu_g", growth.nu_g, hi=1 - growth.nu_sigma)
    if not x > model.x0:
        raise DomainError(f"x: must exceed the start x0 = {model.x0}, got {x}")
    bound_violation("t", t, **POSITIVE)
    return -x ** 2 / (2 * model.spot_sigma() ** 2 * t)
