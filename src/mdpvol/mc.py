"""Monte Carlo simulation of the two-factor system and normalized tail estimates.

Paths follow the full-truncation Euler scheme: at every step the coefficients
are evaluated with the factor argument clamped at zero (square-root kinds
clamp inside their coefficients), the factor itself may dip below zero between
steps, and the integrated variance sums the clamped factor.

One normal per path and step: Z drives the factor, and the log-price driver
is W = rho Z + sqrt(1 - rho^2) Zp.  The coefficients read the factor alone,
so X never feeds back, and given Z the orthogonal part of the Euler X_T,
sqrt(1 - rho^2) sum_i sigma_i sqrt(dt) Zp_i, is exactly Gaussian with
variance (1 - rho^2) dt q, where q = sum_i sigma_i^2.  The engine therefore
draws it once per path at the end of the chunk:

    X_T = x0 + a q dt + rho sqrt(dt) sum_i sigma_i Z_i + sqrt(1 - rho^2) sqrt(dt q) eps,

with a the log-price drift coefficient and eps one standard normal per
path.  This is the Euler law of X_T, sampled by plain Monte Carlo.  A batch
that asks only for the integrated variance draws no eps and forms no X.

Stream layout ``STREAM_LAYOUT`` ("sfc64-seedseq-2^14-z+eps"): paths are
generated in fixed-size chunks of 2^14, and chunk j opens one SFC64
generator per use, seeded by ``SeedSequence((seed mod 2^64, j, d))``: d = 0
for Z, d = 2 for eps, which is opened only when ``x_terminal`` is asked for
(d = 1 stays free for a per-step W).  The chunks run on one worker
thread per core the process may use (capped at the number of chunks; there
is no setting for it), worker w taking chunks w, w + workers, ...  Each
worker owns one preallocated workspace, steps its chunks with in-place array
operations only, and writes every chunk straight into that chunk's slice of
the output arrays, so the batch is laid out in chunk order whatever the
thread schedule.  The first k whole chunks of a batch do not depend on the
number of paths after them.

Reproducibility contract: the float operations of a path and their order do
not depend on the worker count, so serial and threaded runs agree bitwise and
equal (model, config) inputs give bitwise-identical batches, and the
integrated variance is the same bytes whether or not X is asked for.  The
overflow guard checks the fields computed: a value of X_T or V that is not
finite or exceeds 1e12 in magnitude aborts the batch, and the error names the
lowest overflowing chunk, as a serial run would.  Antithetic sampling negates
Z and eps and doubles the stored batch.

A ``PathBatch`` holds the two path summaries the estimators read: the
terminal log-price and the integrated factor.  ``simulate`` computes only the
fields it is asked for; the others come back as None.  ``TARGETS`` is the one
table of the ``mc`` targets, each naming the one field its estimate asks for.

Tail estimates report the hit probability with a normal-approximation 95%
confidence halfwidth and the normalized logarithm log(p) / speed used by the
moderate-deviations comparisons; a batch with no hits reports p = 0 with a
-inf sentinel rather than a smoothed estimate, which would silently bias the
log-scale comparison.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Callable, Mapping

import numpy as np

from .asymptotics import smalltime_call_exponent
from .errors import (BETA_BOUNDS, OPEN_UNIT, POSITIVE, DomainError, SimulationOverflowError,
                     bound_violation)
from .families import family
from .ldp import RealizedVarLdp, rv_mdp_exponent
from .models import ModelSpec

_OVERFLOW_GUARD = 1e12
_CHUNK = 1 << 14
STREAM_LAYOUT = "sfc64-seedseq-2^14-z+eps"
# the uses of a chunk's streams: the factor normals Z, and the end draw of X
_Z_STREAM, _END_STREAM = 0, 2
_CI_Z = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimConfig:
    """Batch size, grid, seed and variance-reduction switches for one run.

    The scheme is always full-truncation Euler (Lord, Koekkoek & van Dijk 2010).
    """

    n_paths: int
    n_steps: int
    t_end: float
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        bound_violation("n_paths", self.n_paths, lo=1)
        bound_violation("n_steps", self.n_steps, lo=1)
        bound_violation("t_end", self.t_end, **POSITIVE)


@dataclass(frozen=True)
class PathBatch:
    """Terminal and pathwise summaries of one simulated batch (immutable).

    A field that was not requested from ``simulate`` is None.
    """

    x_terminal: np.ndarray | None
    integrated_variance: np.ndarray | None


PATH_FIELDS = tuple(f.name for f in dataclass_fields(PathBatch))


@dataclass(frozen=True)
class TailEstimate:
    """A tail probability with its MDP-normalized logarithm and analytic target."""

    p_hat: float
    ci_halfwidth: float
    normalized_log: float
    analytic_target: float
    threshold: float
    n_paths: int

    @property
    def value(self) -> float:  # p_hat, under the name of a CallEstimate's price
        return self.p_hat


@dataclass(frozen=True)
class CallEstimate:
    """A call-price estimate with its normalized logarithm and analytic target."""

    value: float
    ci_halfwidth: float
    normalized_log: float
    analytic_target: float
    strike_log: float
    n_paths: int


def _chunk_stream(seed: int, chunk_index: int, use: int) -> np.random.Generator:
    entropy = (seed & 0xFFFFFFFFFFFFFFFF, chunk_index, use)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))


# mdpbench/tracing.py wraps the factory under this name to count chunk streams
_philox = _chunk_stream


def _worker_count(n_chunks: int) -> int:
    """One worker per core this process may run on, and no more than chunks."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(n_chunks, cores)


def simulate(model: ModelSpec, config: SimConfig,
             fields=PATH_FIELDS) -> PathBatch:
    """Full-truncation Euler batch of the model's system.

    ``fields`` names the ``PathBatch`` fields to compute; the others are None.
    Raises SimulationOverflowError and aborts if a computed field has a value
    that is not finite or exceeds 1e12 in magnitude.
    """
    unknown = [name for name in fields if name not in PATH_FIELDS]
    if unknown or not fields:
        raise DomainError(f"fields: need a nonempty subset of {PATH_FIELDS}, "
                          f"got {tuple(fields)}")
    dt = config.t_end / config.n_steps
    sqrt_dt = math.sqrt(dt)
    rho = model.rho
    rho_perp = math.sqrt(max(0.0, 1.0 - rho ** 2))
    clamp = model.clamp_y
    coeffs = model.coeffs_fused
    a_x = model.x_drift_coeff * dt
    x0, y0 = float(model.x0), float(model.y0)
    # the clamped factor at time 0, the first trapezoid sample of V
    y_first = float(np.maximum(y0, 0.0)) if clamp else y0

    copies = 2 if config.antithetic else 1
    try:
        batch = PathBatch(**{name: np.empty(copies * config.n_paths)
                             if name in fields else None for name in PATH_FIELDS})
    except ValueError as exc:  # more bytes than one array can address
        raise MemoryError(str(exc)) from None
    x_out, v_out = batch.x_terminal, batch.integrated_variance
    n_chunks = (config.n_paths + _CHUNK - 1) // _CHUNK
    workers = _worker_count(n_chunks)
    # Per worker: Z, sigma, f, g, Y, and the sum q of sigma^2 when X is
    # asked for.  Allocated on the calling thread, so that freed workspaces
    # go back to its heap for later batches, not to worker heaps.
    size = copies * min(_CHUNK, config.n_paths)
    workspaces = [(np.empty(size), np.empty(size), np.empty(size), np.empty(size),
                   np.empty(size), None if x_out is None else np.empty(size))
                  for _ in range(workers)]

    def run_worker(first: int) -> int | None:
        """Run chunks first, first + workers, ...; return the first that overflows."""
        z_work, s, tmp, g, y_work, q_work = workspaces[first]
        for chunk_index in range(first, n_chunks, workers):
            n = min(_CHUNK, config.n_paths - chunk_index * _CHUNK)
            m = copies * n
            start = copies * chunk_index * _CHUNK
            rows = slice(start, start + m)
            z, y = z_work[:m], y_work[:m]
            y.fill(y0)
            if x_out is not None:
                # x accumulates sum sigma_i z_i, q sums sigma_i^2
                x, q = x_out[rows], q_work[:m]
                x.fill(0.0)
                q.fill(0.0)
            if v_out is not None:
                v = v_out[rows]
                v.fill(0.0)
            coeff_out = (s[:m], tmp[:m], g[:m])  # (sigma, f, g), f held in tmp
            s_m, f_m, g_m = coeff_out
            rng = _chunk_stream(config.seed, chunk_index, _Z_STREAM)
            for _ in range(config.n_steps):
                rng.standard_normal(out=z[:n])
                if config.antithetic:
                    np.negative(z[:n], out=z[n:])
                coeffs(y, coeff_out)
                f_m *= dt
                y += f_m
                g_m *= z
                g_m *= sqrt_dt
                y += g_m
                if x_out is not None:
                    q += np.multiply(s_m, s_m, out=f_m)
                    x += np.multiply(s_m, z, out=s_m)
                if v_out is not None:
                    v += np.maximum(y, 0.0, out=f_m) if clamp else y
            if x_out is not None:
                # given Z, the orthogonal part of X_T is N(0, rho_perp^2 dt q):
                # X_T = x0 + a_x q + rho sqrt(dt) x + rho_perp sqrt(dt q) eps
                eps = z
                _chunk_stream(config.seed, chunk_index, _END_STREAM).standard_normal(
                    out=eps[:n])
                if config.antithetic:
                    np.negative(eps[:n], out=eps[n:])
                x *= rho * sqrt_dt
                x += np.multiply(q, a_x, out=f_m)
                q *= dt
                np.sqrt(q, out=q)
                q *= rho_perp
                q *= eps
                x += q
                x += x0
                if not np.abs(x, out=f_m).max() <= _OVERFLOW_GUARD:
                    return chunk_index
            if v_out is not None:
                if clamp:  # the last trapezoid sample of V is the clamped factor
                    np.maximum(y, 0.0, out=y)
                # trapezoid of the clamped factor: dt * (sum of samples - end averages)
                np.add(y, y_first, out=f_m)
                f_m *= 0.5
                v += y_first
                v -= f_m
                v *= dt
                if not np.abs(v, out=f_m).max() <= _OVERFLOW_GUARD:
                    return chunk_index
        return None

    with ThreadPoolExecutor(max_workers=workers) as pool:
        overflowed = list(pool.map(run_worker, range(workers)))
    overflowed = [j for j in overflowed if j is not None]
    if overflowed:
        raise SimulationOverflowError(
            f"{' or '.join(fields)} crossed {_OVERFLOW_GUARD:g} in chunk "
            f"{min(overflowed)}; batch aborted")
    return batch


def _tail_from_batch(values: np.ndarray, threshold: float, speed: float,
                     target: float) -> TailEstimate:
    n = len(values)
    p_hat = int(np.sum(values >= threshold)) / n
    normalized = math.log(p_hat) / speed if p_hat > 0 else -math.inf
    return TailEstimate(p_hat, _CI_Z * math.sqrt(p_hat * (1 - p_hat) / n), normalized,
                        target, threshold, n)


def _call_from_batch(values: np.ndarray, log_strike: float, speed: float,
                     target: float) -> CallEstimate:
    payoff = np.maximum(np.exp(values) - math.exp(log_strike), 0.0)
    value, n = float(np.mean(payoff)), len(payoff)
    normalized = math.log(value) / speed if value > 0 else -math.inf
    return CallEstimate(value, _CI_Z * float(np.std(payoff)) / math.sqrt(n), normalized,
                        target, log_strike, n)


def _smalltime_levels(model: ModelSpec, t: float, k: float, beta: float):
    h = t ** (-beta)
    return model.x0 + k * math.sqrt(t) * h, h ** 2, -k ** 2 / (2 * model.spot_sigma() ** 2)


def _rv_levels(model: ModelSpec, t: float, x: float, beta: float):
    kappa, theta, xi = family(model).square_root_factor()
    return (x * t ** (beta + 0.5) + theta * t, t ** (2 * beta),
            rv_mdp_exponent(RealizedVarLdp(kappa, theta, xi, model.y0), x))


@dataclass(frozen=True)
class Target:
    """One ``mc`` target: it reads ``t`` and its ``level`` key (k or x) within
    ``bounds``, with ``defaults`` where it has them.  ``levels(model, t, level,
    beta)`` gives its threshold or log-strike, speed and analytic target, from
    which ``statistic`` makes its ``path_field`` values into its estimate."""

    path_field: str
    level: str
    defaults: Mapping[str, float]
    bounds: Mapping[str, Mapping]
    levels: Callable
    statistic: Callable

    def estimate(self, model: ModelSpec, t: float, level: float, beta: float,
                 config: SimConfig) -> TailEstimate | CallEstimate:
        """The estimate on one batch of ``config`` run to ``t``; DomainError out of bounds."""
        bound_violation("t", t, **self.bounds["t"])
        bound_violation(self.level, level, **self.bounds[self.level])
        bound_violation("beta", beta, **BETA_BOUNDS)
        threshold, speed, target = self.levels(model, t, level, beta)
        batch = simulate(model, replace(config, t_end=t), fields=(self.path_field,))
        return self.statistic(getattr(batch, self.path_field), threshold, speed, target)


# P(X_t >= x0 + k sqrt(t) h(t)), h(t) = t^{-beta}: speed h(t)^2, target -k^2 / (2 sigma^2(y0))
SMALLTIME_TAIL = Target("x_terminal", "k", {"t": 0.01, "k": 0.2},
                        {"t": OPEN_UNIT, "k": {"lo": 0}}, _smalltime_levels, _tail_from_batch)
# P(V_t >= x t^{beta + 1/2} + theta t): speed t^{2 beta}, target -kappa^2 x^2 / (2 xi^2 theta);
# no default t, since the small-time horizons do not reach this large-time tail
RV_TAIL = Target("integrated_variance", "x", {"x": 0.05}, {"t": POSITIVE, "x": POSITIVE},
                 _rv_levels, _tail_from_batch)
# E(e^{X_t} - e^{x0 + k sqrt(t) h(t)})_+ at the tail's speed, with the call quote's exponent
CALL = Target("x_terminal", "k", {"t": 0.01, "k": 0.2}, {"t": OPEN_UNIT, "k": POSITIVE},
              lambda model, t, k, beta: (*_smalltime_levels(model, t, k, beta)[:2],
                                         smalltime_call_exponent(model, k)),
              _call_from_batch)
TARGETS = {"smalltime_tail": SMALLTIME_TAIL, "rv_tail": RV_TAIL, "call": CALL}
DEFAULT_TARGET = "smalltime_tail"


def estimate_smalltime_tail(model: ModelSpec, t: float, k: float, beta: float,
                            config: SimConfig) -> TailEstimate:
    """The ``SMALLTIME_TAIL`` estimate of P(X_t >= x0 + k sqrt(t) t^{-beta})."""
    return SMALLTIME_TAIL.estimate(model, t, k, beta, config)


def estimate_rv_tail(model: ModelSpec, t: float, x: float, beta: float,
                     config: SimConfig) -> TailEstimate:
    """The ``RV_TAIL`` estimate of P(V_t >= x t^{beta + 1/2} + theta t)."""
    return RV_TAIL.estimate(model, t, x, beta, config)


def exact_gaussian_tail(sigma_level: float, t: float, threshold: float,
                        x0: float = 0.0) -> float:
    """Exact P(X_t >= threshold) for the constant-volatility model.

    X_t is Gaussian with mean x0 - sigma^2 t / 2 and variance sigma^2 t; this
    is the closed-form oracle for coverage tests of the estimators.
    """
    from scipy.special import ndtr

    mean = x0 - 0.5 * sigma_level ** 2 * t
    sd = abs(sigma_level) * math.sqrt(t)
    return float(ndtr(-((threshold - mean) / sd)))


def exact_gaussian_call(sigma_level: float, t: float, log_strike: float,
                        x0: float = 0.0) -> float:
    """Exact E(e^{X_t} - e^{log_strike})_+ for the constant-volatility model."""
    from scipy.special import ndtr

    mean = x0 - 0.5 * sigma_level ** 2 * t
    sd = abs(sigma_level) * math.sqrt(t)
    d1 = (mean + sd ** 2 - log_strike) / sd
    d2 = (mean - log_strike) / sd
    return float(math.exp(mean + 0.5 * sd ** 2) * ndtr(d1)
                 - math.exp(log_strike) * ndtr(d2))
