"""Executable acceptance criteria.

Each criterion is a self-contained function returning a ``CriterionResult``
whose ``details`` are deterministic (fixed sub-seeds, fixed batch layout) and
JSON-serializable; wall times never enter the results, so serialized reports
are bitwise reproducible.  ``run_all`` executes the suite in order and
returns the results together with one human-readable pass/fail line per
criterion (timings belong to the caller's stdout, not to files).

The two Monte Carlo trend criteria combine a monotonicity sub-check with a
fixed band on the final value.  The trend parts hold; the band parts compare
a finite-horizon estimate against a band that does not account for the
subexponential prefactor of the tail probability (about exp(-log(z sqrt(2 pi)))
relative to the pure quadratic decay), and independent oracles put the
finite-horizon values outside the stated bands: for criterion 8 a Gaussian
proxy that holds the spot variance fixed (the exact Heston tail agrees with
the engine's final value), for criterion 9 a saddlepoint on the exact
cumulant function.  Those sub-checks are implemented exactly as stated and
report their honest failure; the oracle values are included in the result
details.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_SEED, subseed, validate_config
from .families import MODELS, family
from .invariant import gamma_invariant, integrate, speed_measure
from .ldp import (LdpHestonParams, RealizedVarLdp, curvature,
                  curvature_identity, fenchel_legendre_numeric, rv_lambda_inf,
                  rv_lambda_star, rv_mgf)
from .mc import (RV_TAIL, SMALLTIME_TAIL, SimConfig, estimate_rv_tail,
                 estimate_smalltime_tail, exact_gaussian_tail)
from .models import (check_assumptions, make_constant_sigma, make_heston,
                     mdp_growth_condition)
from .paths import DiscretePath
from .poisson import generator_residual, solve_poisson_cev
from .rates import (contract_two_to_one, endpoint_rate,
                    heston_large_time_params, large_time_params,
                    minimize_endpoint)

REFERENCE = MODELS["heston"].defaults


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    notes: str = ""

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] criterion {self.cid:2d}: {self.name}"


def _reference_model():
    return make_heston(**REFERENCE)


def criterion_01_large_time_q(seed: int) -> CriterionResult:
    """Speed-measure Poisson-route q vs closed form on 10 random sets, 1e-6 relative."""
    rng = np.random.Generator(np.random.Philox(key=subseed(seed, "criterion-1")))
    worst = 0.0
    for _ in range(10):
        kappa = rng.uniform(0.5, 5.0)
        theta = rng.uniform(0.01, 1.0)
        xi = rng.uniform(0.1, 1.0)
        rho = rng.uniform(-0.9, 0.9)
        model = make_heston(kappa, theta, xi, rho, 0.0, theta)
        measure = family(model).invariant()
        phi = solve_poisson_cev(lambda y: 0.5 * y, measure, q_h=1.0)
        closed = heston_large_time_params(model).q
        rel = abs(large_time_params(model, measure, phi, 0.0).q - closed) / abs(closed)
        worst = max(worst, rel)
    return CriterionResult(
        1, "large-time variance constant: quadrature vs closed form",
        passed=worst <= 1e-6, details={"max_relative_error": worst})


def criterion_02_curvature_logprice() -> CriterionResult:
    """|curvature(Lambda*, -theta/2) * q - 1| <= 1e-3 under at least one d variant."""
    m = REFERENCE
    q = heston_large_time_params(_reference_model()).q
    residuals, passing = curvature_identity(
        LdpHestonParams(m["kappa"], m["theta"], m["xi"], m["rho"]), q)
    return CriterionResult(
        2, "curvature identity, log-price rate function",
        passed=passing is not None,
        details={"residuals": residuals, "passing_variant": passing},
        notes=f"passing variant recorded: {passing or 'none'}")


def criterion_03_curvature_rv() -> CriterionResult:
    """Realised-variance curvature: reciprocal of xi^2 theta / kappa^2, and 160."""
    m = REFERENCE
    params = RealizedVarLdp(m["kappa"], m["theta"], m["xi"], m["y0"])
    qbar = m["xi"] ** 2 * m["theta"] / m["kappa"] ** 2
    curv = curvature(lambda x: rv_lambda_star(params, x), m["theta"])
    identity_err = abs(curv * qbar - 1.0)
    value_err = abs(curv - 160.0)
    return CriterionResult(
        3, "curvature identity, realised-variance rate function",
        passed=identity_err <= 1e-6 and value_err <= 1e-3,
        details={"curvature": curv, "identity_error": identity_err,
                 "error_vs_160": value_err})


def criterion_04_fenchel_duality() -> CriterionResult:
    """Numeric transform of the limiting cumulant function vs closed form, 50 points."""
    m = REFERENCE
    params = RealizedVarLdp(m["kappa"], m["theta"], m["xi"], m["y0"])
    grid = np.linspace(m["theta"] / 2, 2 * m["theta"], 50)
    worst = 0.0
    u_lo = -100.0
    for x in grid:
        numeric, _ = fenchel_legendre_numeric(
            lambda u: rv_lambda_inf(params, u), u_lo, params.u_max, float(x))
        worst = max(worst, abs(numeric - rv_lambda_star(params, float(x))))
    return CriterionResult(
        4, "Fenchel-Legendre duality for the realised-variance rate",
        passed=worst <= 1e-6, details={"max_abs_error": worst})


def criterion_05_poisson_oracle() -> CriterionResult:
    """CIR Poisson solves: u' = -1/kappa and -1/(2 kappa), residual <= 1e-5."""
    m = REFERENCE
    kappa, theta, xi = m["kappa"], m["theta"], m["xi"]
    measure = gamma_invariant(kappa, theta, xi)
    window = np.linspace(0.01, 1.0, 512)

    sol_linear = solve_poisson_cev(lambda y: y, measure, q_h=1.0)
    err_linear = float(np.max(np.abs(sol_linear.u_prime(window) + 1.0 / kappa)))
    sol_phi = solve_poisson_cev(lambda y: 0.5 * y, measure, q_h=1.0)
    err_phi = float(np.max(np.abs(sol_phi.u_prime(window) + 0.5 / kappa)))

    mean = integrate(measure, lambda y: y).value
    res_linear = generator_residual(measure, sol_linear, lambda y: y - mean)
    res_phi = generator_residual(measure, sol_phi, lambda y: 0.5 * (y - mean))
    residual = max(res_linear, res_phi)
    return CriterionResult(
        5, "speed-measure Poisson solver vs constant-derivative solutions",
        passed=err_linear <= 1e-4 and err_phi <= 1e-4 and residual <= 1e-5,
        details={"uprime_error_linear": err_linear, "uprime_error_phi": err_phi,
                 "generator_residual": residual})


def criterion_06_variational_oracle(seed: int) -> CriterionResult:
    """Endpoint minimizer vs closed form at N = 4096, order-2 refinement, contraction slope."""
    q = heston_large_time_params(_reference_model()).q
    x = 0.1
    closed = endpoint_rate(q, x)
    errors = {}
    for n in (512, 1024, 2048, 4096):
        value, _ = minimize_endpoint(q, 0.0, x, 1.0, n)
        errors[n] = abs(value - closed)
    refinement_ok = all(errors[n] <= 1.0 / n ** 2 for n in errors)

    rng = np.random.Generator(np.random.Philox(key=subseed(seed, "criterion-6")))
    times = np.linspace(0.0, 1.0, 4097)
    coefs = rng.standard_normal(6)
    values = sum(c * np.sin((j + 1) * np.pi * times / 2) for j, c in enumerate(coefs))
    values = 0.1 * (values - values[0])
    phi = DiscretePath(times, values)
    sigma0, g0, rho = 0.31622776601683794, 0.7, -0.5
    _, psi = contract_two_to_one(sigma0, g0, rho, phi)
    dphi = np.diff(phi.values) / phi.dt
    dpsi = np.diff(psi.values) / psi.dt
    slope_err = float(np.max(np.abs(dpsi - rho * (g0 / sigma0) * dphi)))
    return CriterionResult(
        6, "variational minimizers vs closed forms",
        passed=errors[4096] <= 1e-8 and refinement_ok and slope_err <= 1e-6,
        details={"endpoint_errors": {str(k): v for k, v in errors.items()},
                 "contraction_slope_error": slope_err})


def criterion_07_gaussian_mc(seed: int) -> CriterionResult:
    """Constant-volatility CI coverage: 20 seeds, >= 18 must cover the exact tail."""
    model = make_constant_sigma(0.2, 0.0)
    t, threshold = 0.01, 0.04
    exact = exact_gaussian_tail(0.2, t, threshold)
    h = t ** (-0.25)
    k = threshold / (math.sqrt(t) * h)
    covered = 0
    estimates = []
    for i in range(20):
        config = SimConfig(n_paths=1_000_000, n_steps=16, t_end=t,
                           seed=subseed(seed, f"criterion-7-{i}"))
        est = estimate_smalltime_tail(model, t, k, 0.25, config)
        estimates.append(est.p_hat)
        if abs(est.p_hat - exact) <= est.ci_halfwidth:
            covered += 1
    return CriterionResult(
        7, "exact-Gaussian Monte Carlo oracle (CI coverage)",
        passed=covered >= 18,
        details={"covered": covered, "exact_tail": exact,
                 "mean_estimate": float(np.mean(estimates))})


def criterion_08_smalltime_trend(seed: int) -> CriterionResult:
    """Small-time tail trend: monotone toward -0.2 and final value in [-0.30, -0.12].

    10 seeds x 1e6 paths at t in {0.04, 0.02, 0.01}.  The band sub-check is
    implemented exactly as stated; a Gaussian proxy of the final point's tail,
    with the spot variance sigma^2 = y0 held fixed, is included in the details.
    """
    model = _reference_model()
    beta, k = 0.25, 0.2
    t_values = (0.04, 0.02, 0.01)
    threshold, speed, target = SMALLTIME_TAIL.levels(model, t_values[-1], k, beta)
    steps = {0.04: 400, 0.02: 200, 0.01: 100}
    averaged = []
    for t in t_values:
        p_sum = 0.0
        for i in range(10):
            config = SimConfig(n_paths=1_000_000, n_steps=steps[t], t_end=t,
                               seed=subseed(seed, f"criterion-8-{t}-{i}"))
            p_sum += estimate_smalltime_tail(model, t, k, beta, config).p_hat
        p_bar = p_sum / 10
        # not log(p_bar) / h(t)^2, which can differ from this in the last bit
        averaged.append(math.log(p_bar) * t ** (2 * beta))
    gaps = [abs(v - target) for v in averaged]
    monotone = gaps[0] > gaps[1] > gaps[2]
    final = averaged[-1]
    band_ok = -0.30 <= final <= -0.12

    # independent proxy: the final point's Gaussian tail, spot variance held fixed
    y0, t = REFERENCE["y0"], t_values[-1]
    z = (threshold + 0.5 * y0 * t) / math.sqrt(y0 * t)
    from scipy.special import ndtr

    oracle_final = math.log(float(ndtr(-z))) / speed
    return CriterionResult(
        8, "small-time tail trend toward the quadratic target",
        passed=monotone and band_ok,
        details={"normalized_logs": averaged, "target": target,
                 "monotone_toward_target": monotone,
                 "final_in_band": band_ok, "band": [-0.30, -0.12],
                 "gaussian_oracle_final": oracle_final},
        notes=("band sub-check compares against [-0.30, -0.12] as stated; the "
               "Gaussian proxy with the spot variance held fixed already sits "
               "below that band at t = 0.01, as does the exact Heston tail, "
               "because of the subexponential prefactor"))


def _rv_mgf_saddle_tail(kappa, theta, xi, y0, c, t):
    """Saddlepoint tail P(V_t >= c) from the exact cumulant function."""
    from scipy.optimize import brentq
    from scipy.special import ndtr

    params = RealizedVarLdp(kappa, theta, xi, y0)
    step = 1e-7
    hi = params.u_max - 3 * step  # keep the difference stencil inside the domain

    def lam(u):
        return rv_mgf(params, u, t)

    def lam_p(u):
        return (lam(u + step) - lam(u - step)) / (2 * step)

    u_star = brentq(lambda u: lam_p(u) - c, -50.0, hi)
    lam_pp = (lam(u_star + 1e-4) - 2 * lam(u_star) + lam(u_star - 1e-4)) / 1e-8
    w = math.copysign(math.sqrt(2 * (u_star * c - lam(u_star))), u_star)
    v = u_star * math.sqrt(lam_pp)
    # scipy.stats.norm.pdf(w) squares an array, i.e. w * w; the Python float
    # w ** 2 calls pow and can differ in the last bit
    pdf = np.exp(-w * w / 2.0) / np.sqrt(2 * np.pi)
    return float(ndtr(-w) + pdf * (1 / v - 1 / w))


def criterion_09_rv_trend(seed: int) -> CriterionResult:
    """Realised-variance tail trend at t in {25, 50, 100}: monotone, final in +-50%.

    Path count (2e5) and step size (0.05) are implementation choices recorded
    here; the saddlepoint oracle on the exact cumulant function is included
    for the final point.
    """
    model = _reference_model()
    m = REFERENCE
    beta, x = 0.25, 0.05
    t_values = (25.0, 50.0, 100.0)
    averaged = []
    for t in t_values:
        threshold, speed, target = RV_TAIL.levels(model, t, x, beta)
        steps = int(round(t / 0.05))
        p_sum = 0.0
        for i in range(10):
            config = SimConfig(n_paths=200_000, n_steps=steps, t_end=t,
                               seed=subseed(seed, f"criterion-9-{t}-{i}"))
            p_sum += estimate_rv_tail(model, t, x, beta, config).p_hat
        p_bar = p_sum / 10
        averaged.append(math.log(p_bar) / speed)
    gaps = [abs(v - target) for v in averaged]
    monotone = gaps[0] > gaps[1] > gaps[2]
    final = averaged[-1]
    band = [1.5 * target, 0.5 * target]
    band_ok = band[0] <= final <= band[1]
    # the final point's threshold and speed
    oracle = _rv_mgf_saddle_tail(m["kappa"], m["theta"], m["xi"], m["y0"], threshold, t)
    oracle_final = math.log(oracle) / speed
    return CriterionResult(
        9, "realised-variance tail trend toward the quadratic target",
        passed=monotone and band_ok,
        details={"normalized_logs": averaged, "target": target,
                 "monotone_toward_target": monotone,
                 "final_in_band": band_ok, "band": band,
                 "saddlepoint_oracle_final": oracle_final},
        notes=("band sub-check is the stated +-50% relative band; the "
               "saddlepoint oracle on the exact cumulant function already "
               "sits below that band at t = 100"))


def criterion_10_stationarity() -> CriterionResult:
    """Generator orthogonality: int L F dmu = 0 within 1e-6 for three test functions."""
    m = REFERENCE
    kappa, theta, xi = m["kappa"], m["theta"], m["xi"]
    measures = {
        "gamma": gamma_invariant(kappa, theta, xi),
        "speed_qg_half": speed_measure(kappa, theta, xi, 0.5),
        "speed_qg_3quarters": speed_measure(kappa, theta, xi, 0.75),
    }
    tests = {
        "y": (lambda y: np.ones_like(y), lambda y: np.zeros_like(y)),
        "y^2": (lambda y: 2 * y, lambda y: 2 * np.ones_like(y)),
        "exp(-y)": (lambda y: -np.exp(-y), lambda y: np.exp(-y)),
    }
    worst = 0.0
    values = {}
    for mname, measure in measures.items():
        q_g = measure.params["q_g"]
        for fname, (fp, fpp) in tests.items():
            def integrand(y, fp=fp, fpp=fpp, q_g=q_g):
                return (kappa * (theta - y) * fp(y)
                        + 0.5 * (xi * y ** q_g) ** 2 * fpp(y))

            val = abs(integrate(measure, integrand).value)
            values[f"{mname}:{fname}"] = val
            worst = max(worst, val)
    return CriterionResult(
        10, "stationarity of the constructed invariant measures",
        passed=worst <= 1e-6, details={"max_abs": worst, "values": values})


def criterion_11_assumption_fixtures() -> CriterionResult:
    """Assumption-branch fixtures and the q_g < 1/(2 beta + 1) equivalence."""
    model = _reference_model()
    report = check_assumptions(model, q_h=1.0)
    cir_ok = report.passed("functional-growth-cir")
    generic_fails = not report.passed("functional-growth-generic")

    equivalence_ok = True
    for beta in np.arange(0.1, 0.46, 0.05):
        bound = 1.0 / (2 * beta + 1)
        for q_g in np.concatenate((np.linspace(0.5, 0.95, 19),
                                   [bound - 1e-9, bound + 1e-9])):
            lhs = mdp_growth_condition(float(q_g), 1.0, float(beta))
            rhs = q_g < bound
            if lhs != rhs:
                equivalence_ok = False
    return CriterionResult(
        11, "assumption checker fixtures and growth-condition equivalence",
        passed=cir_ok and generic_fails and equivalence_ok,
        details={"cir_branch_passes": cir_ok,
                 "generic_branch_fails": generic_fails,
                 "equivalence_exact": equivalence_ok})


def criterion_12_determinism(seed: int) -> CriterionResult:
    """Each subcommand run twice with equal config gives bitwise-identical files.

    Exercised on every file-producing subcommand (invariant, poisson, rate,
    ldp, compare, asymptotics, and a small mc); the acceptance report itself
    contains no volatile fields by construction, which this suite certifies by
    serializing one cheap criterion twice.
    """
    import json
    import os
    import tempfile

    from .reporting import RUNNERS

    mismatches = []
    mc_params = {"paths": 20000, "steps": 20}  # the default target, t and k
    with tempfile.TemporaryDirectory() as tmp:
        for name, runner in RUNNERS.items():
            config = validate_config({"experiment": name, "seed": seed,
                                      "params": mc_params if name == "mc" else {}})
            dir_a = os.path.join(tmp, name, "a")
            dir_b = os.path.join(tmp, name, "b")
            files_a = runner(config, dir_a)
            files_b = runner(config, dir_b)
            for fa, fb in zip(files_a, files_b):
                with open(fa, "rb") as ha, open(fb, "rb") as hb:
                    if ha.read() != hb.read():
                        mismatches.append(name)

    rep_a = json.dumps(result_payload(criterion_11_assumption_fixtures()), sort_keys=True)
    rep_b = json.dumps(result_payload(criterion_11_assumption_fixtures()), sort_keys=True)
    if rep_a != rep_b:
        mismatches.append("acceptance-report")
    return CriterionResult(
        12, "bitwise determinism of subcommand outputs",
        passed=not mismatches, details={"mismatches": mismatches})


def result_payload(result: CriterionResult) -> dict:
    return {"id": result.cid, "name": result.name, "passed": result.passed,
            "details": result.details, "notes": result.notes}


ALL_CRITERIA = (
    criterion_01_large_time_q,
    criterion_02_curvature_logprice,
    criterion_03_curvature_rv,
    criterion_04_fenchel_duality,
    criterion_05_poisson_oracle,
    criterion_06_variational_oracle,
    criterion_07_gaussian_mc,
    criterion_08_smalltime_trend,
    criterion_09_rv_trend,
    criterion_10_stationarity,
    criterion_11_assumption_fixtures,
    criterion_12_determinism,
)


def run_all(seed: int = DEFAULT_SEED, only: tuple[int, ...] | None = None):
    """Run the criteria (all, or the ``only`` subset of ids); returns
    (results, report payload for JSON)."""
    results = []
    for index, criterion in enumerate(ALL_CRITERIA, start=1):
        if only is not None and index not in only:
            continue
        takes_seed = "seed" in inspect.signature(criterion).parameters
        results.append(criterion(seed) if takes_seed else criterion())
    payload = {
        "seed": seed,
        "criteria": [result_payload(r) for r in results],
        "all_passed": all(r.passed for r in results),
        "n_passed": sum(r.passed for r in results),
    }
    return results, payload
