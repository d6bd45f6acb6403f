"""Experiment runners and deterministic CSV/JSON emission.

Every runner consumes a validated ``ExperimentConfig`` and writes its outputs
under a target directory.  Output files are deterministic functions of the
configuration: float cells carry 17 significant digits, CSV headers are fixed
and documented, JSON keys are sorted, files are written atomically
(temp-then-rename), and no timestamps or wall times ever enter a file, so
rerunning a subcommand with an equal config reproduces the files bitwise.
"""

from __future__ import annotations

import json
import operator
import os
import sys
import tempfile
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import asymptotics as asy
from . import ldp as ldp_mod
from .config import ExperimentConfig, build_model, subseed
from .errors import ConfigError, DomainError
from .families import family
from .invariant import (gamma_invariant, integrate, measure_moments,
                        speed_measure)
from .mc import DEFAULT_TARGET, STREAM_LAYOUT, TARGETS, SimConfig
from .poisson import generator_residuals, solve_poisson_cev
from .rates import (endpoint_rate, heston_large_time_params,
                    share_large_time_params)

CSV_HEADERS: Mapping[str, Sequence[str]] = {
    "invariant": ("kind", "shape", "rate", "mean", "variance"),
    "poisson": ("y", "u", "u_prime", "residual"),
    "rate": ("x", "J", "J_Q", "q", "q_Q", "alpha"),
    "ldp": ("x", "lambda_star", "mdp_quadratic", "difference"),
    "compare": ("x", "ldp_rate", "mdp_quadratic_shifted", "abs_diff"),
    "mc": ("p_hat", "ci", "normalized_log", "target", "gap", "stream_layout"),
    "asymptotics": ("regime", "x_or_k", "exponent", "speed"),
}


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with LF line endings, UTF-8, a header row, and 17-digit floats.

    A float cell (NumPy float64 included) is written as ``%.17g``, with -0.0
    as 0; any other cell as ``str()``.  The whole file is formatted by one
    %-template pass over its cells.  Cells are never quoted, since every
    cell the runners write is a number, an identifier or empty: a cell
    holding ',', '"', CR or LF raises DomainError instead, as does a row
    whose length is not the header's.
    """
    rows = [header, *rows]
    if any(len(row) != len(header) for row in rows):
        raise DomainError(f"{path}: every CSV row needs {len(header)} cells")
    cells = list(chain.from_iterable(rows))
    separators = ("," * (len(header) - 1) + "\n") * len(rows)
    template = "".join(map(operator.add, ["%.17g" if isinstance(cell, float) else "%s"
                                          for cell in cells], separators))
    # + 0.0 folds -0.0 into 0.0
    text = template % tuple([cell + 0.0 if isinstance(cell, float) else cell
                             for cell in cells])
    if (text.count(",") != separators.count(",") or text.count("\n") != len(rows)
            or '"' in text or "\r" in text):
        bad = next(cell for cell in cells if any(c in str(cell) for c in ',"\r\n'))
        raise DomainError(f"{path}: CSV cell {bad!r} holds a character that is not quoted")
    _atomic_write(path, text)


def write_json(path: str, payload) -> None:
    """JSON with sorted keys and a trailing newline."""
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _out(outdir: str, config: ExperimentConfig, name: str) -> str:
    prefix = config.out_prefix or ""
    return os.path.join(outdir, f"{prefix}{name}")


def _too_large(key: str, value: int) -> DomainError:
    return DomainError(f"params.{key}: {value} needs more memory than this process "
                       "can allocate")


def _factor_measure(config: ExperimentConfig):
    """Invariant measure of dY = kappa (theta - Y) dt + xi Y^q_g dZ, with the
    model's square-root factor; q_g = 1/2 is that factor, with its Gamma law."""
    kappa, theta, xi = family(build_model(config)).square_root_factor()
    q_g = config.params.get("q_g", 0.5)
    if q_g == 0.5:
        return gamma_invariant(kappa, theta, xi)
    return speed_measure(kappa, theta, xi, q_g)


def run_invariant(config: ExperimentConfig, outdir: str) -> list[str]:
    measure = _factor_measure(config)
    shape = "" if measure.shape is None else measure.shape
    rate = "" if measure.rate is None else measure.rate
    rows = [(measure.kind, shape, rate, *measure_moments(measure))]
    path = _out(outdir, config, "invariant.csv")
    write_csv(path, CSV_HEADERS["invariant"], rows)
    return [path]


def run_poisson(config: ExperimentConfig, outdir: str) -> list[str]:
    measure = _factor_measure(config)
    if config.params.get("functional", "linear") == "linear":
        def H(y):
            return y
    else:  # "half_centered_variance"
        def H(y):
            return 0.5 * y
    sol = solve_poisson_cev(H, measure, q_h=1.0)
    h_bar = integrate(measure, H).value

    resid = generator_residuals(measure, sol, lambda y: H(y) - h_bar)
    # resid[j] belongs to grid node j + 1
    rows = zip(sol.grid[1:-1].tolist(), sol.u_values[1:-1].tolist(),
               sol.u_prime_values[1:-1].tolist(), resid.tolist())
    path = _out(outdir, config, "poisson.csv")
    write_csv(path, CSV_HEADERS["poisson"], rows)
    return [path]


def run_rate(config: ExperimentConfig, outdir: str) -> list[str]:
    model = build_model(config)
    zeta = config.regime["zeta_c"]
    lt = heston_large_time_params(model, zeta=zeta)
    lt_q = share_large_time_params(model, zeta=zeta)
    x_values = config.params.get("x_values", [config.params.get("x", 0.1)])
    rows = []
    for x in x_values:
        rows.append((float(x),
                     endpoint_rate(lt.q, x, lt.alpha),
                     endpoint_rate(lt_q.q, x, lt_q.alpha),
                     lt.q, lt_q.q, lt.alpha))
    path = _out(outdir, config, "rate.csv")
    write_csv(path, CSV_HEADERS["rate"], rows)
    return [path]


def _ldp_rows(config: ExperimentConfig):
    model = build_model(config)
    params = ldp_mod.LdpHestonParams(*family(model).square_root_factor(), model.rho,
                                     d_variant=config.params.get("d_variant",
                                                                 "as_printed"))
    lt = heston_large_time_params(model, zeta=0.0)
    center = -params.theta / 2
    n_points = config.params.get("n_points", 101)
    try:
        grid = np.linspace(config.params.get("x_min", center - 0.1),
                           config.params.get("x_max", center + 0.1), n_points)
        lam = np.full(len(grid), np.nan)
    except (ValueError, MemoryError):  # the inputs are validated: only the size fails
        raise _too_large("n_points", n_points) from None
    undefined = []  # where the closed form of Lambda* does not exist
    for i, x in enumerate(grid):
        try:
            lam[i] = ldp_mod.heston_lambda_star(params, x)
        except DomainError as exc:
            undefined.append(f"x={x:g}: {exc}")
    defined = ~np.isnan(lam)
    if undefined:
        message = (f"Lambda* is undefined at {len(undefined)} of {len(grid)} x values "
                   f"(d_variant {params.d_variant}); first at {undefined[0]}")
        if not defined.any():
            raise DomainError(message)
        print(f"warning: {message}; their cells are left empty", file=sys.stderr)
    # a Fenchel transform is never negative; -1e-12 spares roundoff
    negative = np.flatnonzero(lam < -1e-12)
    if negative.size:
        print(f"warning: Lambda* is negative at {negative.size} of {len(grid)} x values "
              f"(d_variant {params.d_variant}); first at x={grid[negative[0]]:g}: "
              f"Lambda* = {lam[negative[0]]:g} (min {lam[negative].min():g}); "
              "the closed-form u* is not the maximiser there", file=sys.stderr)
    shift = float(np.min(lam[defined]))
    quad = (grid - center) ** 2 / (2 * lt.q) + shift
    diff = np.abs(lam - quad)
    rows = [(float(grid[i]), float(lam[i]), float(quad[i]), float(diff[i]))
            if defined[i] else (float(grid[i]), "", "", "")
            for i in range(len(grid))]
    return rows, params, lt


def run_ldp(config: ExperimentConfig, outdir: str) -> list[str]:
    rows, _, _ = _ldp_rows(config)
    path = _out(outdir, config, "ldp.csv")
    write_csv(path, CSV_HEADERS["ldp"], rows)
    return [path]


def run_compare(config: ExperimentConfig, outdir: str) -> list[str]:
    rows, params, lt = _ldp_rows(config)
    residuals, passing = ldp_mod.curvature_identity(params, lt.q)
    summary = {
        "d_variant_used": params.d_variant,
        "q": lt.q,
        "curvature_identity_residual": residuals,
        "passing_variant": passing,
        "min_lambda_star": min(row[1] for row in rows if row[1] != ""),
    }
    csv_path = _out(outdir, config, "compare.csv")
    json_path = _out(outdir, config, "compare_summary.json")
    write_csv(csv_path, CSV_HEADERS["compare"], rows)
    write_json(json_path, summary)
    return [csv_path, json_path]


def run_mc(config: ExperimentConfig, outdir: str) -> list[str]:
    p = config.params
    name = p.get("target", DEFAULT_TARGET)
    target = TARGETS[name]
    values = {**target.defaults, **p}
    sim = SimConfig(n_paths=p.get("paths", 100_000), n_steps=p.get("steps", 100),
                    t_end=values["t"], seed=subseed(config.seed, "mc"),
                    antithetic=p.get("antithetic", False))
    try:
        est = target.estimate(build_model(config), values["t"], values[target.level],
                              config.regime["beta"], sim)
    except MemoryError:
        raise _too_large("paths", sim.n_paths) from None
    if est.value == 0:
        print(f"warning: mc: no path of {est.n_paths} reached the {name} "
              "threshold, so the estimate is 0 and normalized_log is -inf",
              file=sys.stderr)
    row = (est.value, est.ci_halfwidth, est.normalized_log, est.analytic_target,
           est.normalized_log - est.analytic_target, STREAM_LAYOUT)
    path = _out(outdir, config, "mc.csv")
    write_csv(path, CSV_HEADERS["mc"], [row])
    return [path]


def run_asymptotics(config: ExperimentConfig, outdir: str) -> list[str]:
    model = build_model(config)
    p = config.params
    k = p.get("k", 0.2)
    x = p.get("x", 0.1)
    t = p.get("t", 100.0)
    # the put and call quotes take -|x| and |x|; the realised-variance
    # quotes price the positive strike |x| too
    x_rv = abs(x) if "x" in p else 0.05
    if x_rv == 0:
        raise ConfigError(["params.x: must be non-zero: the realised-variance quotes "
                           "price |x|"])
    # the quotes read q alone, which zeta_c does not move
    lt = heston_large_time_params(model)
    lt_q = share_large_time_params(model)
    quotes = asy.quote_catalog(model, lt, lt_q.q, k, x, x_rv, config.regime["beta"], t)
    rows = [(q.regime, q.strike, q.exponent_value, q.speed) for q in quotes]
    path = _out(outdir, config, "asymptotics.csv")
    write_csv(path, CSV_HEADERS["asymptotics"], rows)
    return [path]


RUNNERS = {
    "invariant": run_invariant,
    "poisson": run_poisson,
    "rate": run_rate,
    "ldp": run_ldp,
    "compare": run_compare,
    "mc": run_mc,
    "asymptotics": run_asymptotics,
}
