"""Exact oracles for the benchmark's output checks, kept apart from mdpvol.

Nothing here imports mdpvol: each closed form is written out from the
literature so that a fault in the program cannot also hide in its check.

- Heston log-price tail P(X_t >= c) by Gil-Pelaez inversion of the
  characteristic function in the "little Heston trap" form (Albrecher,
  Mayer, Schoutens & Tistaert 2007), which stays on the principal branch of
  the complex logarithm.
- CIR integrated-variance tail P(V_t >= c), V_t = int_0^t Y_s ds, by
  Gil-Pelaez inversion of the closed-form transform E exp(-lam V_t)
  (Cox, Ingersoll & Ross 1985) continued to lam = -i u.
- Closed forms and properties of the deterministic subcommands: Gamma
  moments, the large-time constant q of the price and share measures, the
  constant Poisson derivative, and the realised-variance quotes.

``self_test`` checks the inversions against limits with known answers.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, optimize, special

# Gil-Pelaez integrals stop where |phi(u)| / u has fallen below this.
_CF_CUTOFF = 1e-17


def heston_cf(u, t, kappa, theta, xi, rho, y0, x0=0.0):
    """E exp(i u X_t) of dX = -Y/2 dt + sqrt(Y) dW, little-Heston-trap form."""
    iu = 1j * u
    beta = kappa - rho * xi * iu
    d = np.sqrt(beta ** 2 + xi ** 2 * (iu + u ** 2))
    g = (beta - d) / (beta + d)
    e = np.exp(-d * t)
    c_term = kappa * theta / xi ** 2 * (
        (beta - d) * t - 2 * np.log((1 - g * e) / (1 - g)))
    d_term = (beta - d) / xi ** 2 * (1 - e) / (1 - g * e)
    return np.exp(iu * x0 + c_term + d_term * y0)


def cir_integral_cf(u, t, kappa, theta, xi, y0):
    """E exp(i u V_t), V_t = int_0^t Y_s ds for dY = kappa (theta - Y) dt + xi sqrt(Y) dZ.

    The Laplace transform E exp(-lam V_t) = A exp(-B y0) with
    gam = sqrt(kappa^2 + 2 xi^2 lam), written with exp(-gam t) only so
    that it stays finite for large t, evaluated at lam = -i u.
    """
    lam = -1j * u
    gam = np.sqrt(kappa ** 2 + 2 * xi ** 2 * lam)
    e = np.exp(-gam * t)
    den = (gam + kappa) * (1 - e) + 2 * gam * e
    log_a = 2 * kappa * theta / xi ** 2 * (
        np.log(2 * gam / den) + (kappa - gam) * t / 2)
    b = 2 * lam * (1 - e) / den
    return np.exp(log_a - b * y0)


def _cutoff(cf) -> float:
    u = 1.0
    while abs(cf(u)) / u > _CF_CUTOFF:
        u *= 1.5
        if u > 1e8:
            raise ArithmeticError("characteristic function does not decay")
    return u


def gil_pelaez_tail(cf, c: float) -> float:
    """P(Z >= c) = 1/2 + (1/pi) int_0^inf Im(exp(-i u c) phi(u)) / u du."""

    def integrand(u):
        return float(np.imag(np.exp(-1j * u * c) * cf(u))) / u

    upper = _cutoff(cf)
    with warnings.catch_warnings():
        # quad warns when it cannot reach epsabs; its error bound is checked below
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(integrand, 0.0, upper, limit=2000,
                                    epsabs=1e-14, epsrel=1e-12)
    if not err < 1e-9:
        raise ArithmeticError(f"Gil-Pelaez quadrature error {err:.2e}")
    return 0.5 + value / math.pi


def heston_tail(t, c, kappa, theta, xi, rho, y0, x0=0.0) -> float:
    """Exact P(X_t >= c) for the Heston log-price started at x0."""
    return gil_pelaez_tail(
        lambda u: heston_cf(u, t, kappa, theta, xi, rho, y0, x0), c)


def cir_integral_tail(t, c, kappa, theta, xi, y0) -> float:
    """Exact P(V_t >= c) for the integrated CIR factor."""
    return gil_pelaez_tail(
        lambda u: cir_integral_cf(u, t, kappa, theta, xi, y0), c)


def cir_integral_mean(t, kappa, theta, y0) -> float:
    return theta * t + (y0 - theta) * (1 - math.exp(-kappa * t)) / kappa


def cir_integral_variance(t, kappa, theta, xi, y0) -> float:
    """Var V_t = 2 int_0^t int_0^s Var(Y_r) exp(-kappa (s - r)) dr ds, by quadrature."""

    def var_y(r):
        e = math.exp(-kappa * r)
        return xi ** 2 * (y0 * (e - e * e) / kappa
                          + theta * (1 - e) ** 2 / (2 * kappa))

    def inner(s):
        return integrate.quad(lambda r: var_y(r) * math.exp(-kappa * (s - r)),
                              0.0, s, epsabs=1e-13, epsrel=1e-12)[0]

    return 2 * integrate.quad(inner, 0.0, t, epsabs=1e-12, epsrel=1e-11,
                              limit=200)[0]


def _cf_cumulants(cf, h=1e-3):
    """First two cumulants of a law from log phi by central differences."""
    lp = np.log(cf(h)), np.log(cf(-h))
    mean = float(np.imag(lp[0] - lp[1])) / (2 * h)
    var = -float(np.real(lp[0] + lp[1])) / h ** 2
    return mean, var


def self_test() -> list[str]:
    """Check the inversions against limits with known answers; returns failures."""
    failures = []
    kappa, theta, rho, t = 2.0, 0.1, -0.5, 0.01
    # xi -> 0 with y0 = theta freezes the factor: X_t ~ N(-theta t/2, theta t).
    # At rho = 0 the gap closes like xi^2 (about 3e-7 relative at xi = 1e-3).
    sd = math.sqrt(theta * t)
    for c in (0.0316, 0.0632, 0.1):
        exact = float(special.ndtr((-theta * t / 2 - c) / sd))
        got = heston_tail(t, c, kappa, theta, 1e-3, 0.0, theta)
        if not abs(got - exact) <= 2e-6 * exact:
            failures.append(f"heston_tail(xi->0, c={c}) = {got!r}, Gaussian {exact!r}")
    # mean of X_t is x0 - E[V_t]/2 at any xi
    for xi in (0.5, 1.0):
        mean, _ = _cf_cumulants(
            lambda u: heston_cf(u, 1.0, kappa, theta, xi, rho, 0.2, 0.3))
        exact = 0.3 - 0.5 * cir_integral_mean(1.0, kappa, theta, 0.2)
        if not abs(mean - exact) <= 1e-6:
            failures.append(f"heston_cf mean(xi={xi}) = {mean!r}, exact {exact!r}")
    # first two cumulants of V_t against its exact mean and variance
    for t_v, y0 in ((25.0, 0.1), (2.0, 0.3)):
        mean, var = _cf_cumulants(
            lambda u: cir_integral_cf(u, t_v, kappa, theta, 0.5, y0))
        m_exact = cir_integral_mean(t_v, kappa, theta, y0)
        v_exact = cir_integral_variance(t_v, kappa, theta, 0.5, y0)
        if not (abs(mean - m_exact) <= 1e-6 * m_exact
                and abs(var - v_exact) <= 1e-4 * v_exact):
            failures.append(f"cir_integral_cf(t={t_v}) cumulants ({mean!r}, {var!r}), "
                            f"exact ({m_exact!r}, {v_exact!r})")
    # V_t is positive, so its tail at 0 is the whole mass
    whole = cir_integral_tail(25.0, 0.0, kappa, theta, 0.5, theta)
    if not abs(whole - 1.0) <= 1e-8:
        failures.append(f"cir_integral_tail(c=0) = {whole!r}, exact 1")
    return failures


# ---- closed forms for the deterministic subcommands ----------------------

def gamma_moments(kappa, theta, xi):
    """(shape, rate, mean, variance) of the Gamma invariant law of the CIR factor."""
    shape = 2 * kappa * theta / xi ** 2
    rate = 2 * kappa / xi ** 2
    return shape, rate, theta, theta * xi ** 2 / (2 * kappa)


def large_time_q(kappa, theta, xi, rho):
    """q = theta (1 + xi^2/(4 kappa^2) - rho xi / kappa) under the price measure."""
    return theta * (1 + xi ** 2 / (4 * kappa ** 2) - rho * xi / kappa)


def share_large_time_q(kappa, theta, xi, rho):
    """q under the share measure, where the factor has rate kappa - rho xi
    and mean kappa theta / (kappa - rho xi) and Phi' flips sign."""
    kq = kappa - rho * xi
    tq = kappa * theta / kq
    return tq * (1 + xi ** 2 / (4 * kq ** 2) + rho * xi / kq)


def rv_rate(kappa, theta, xi, x) -> float:
    """Lambda*(x) = sup_u (u x - Lambda_inf(u)), Lambda_inf(u) = (kappa theta/xi^2)(kappa - sqrt(kappa^2 - 2 xi^2 u)),
    by a bounded numeric maximisation, not the closed form."""
    u_max = kappa ** 2 / (2 * xi ** 2)

    def neg(u):
        return -(u * x - kappa * theta / xi ** 2
                 * (kappa - math.sqrt(kappa ** 2 - 2 * xi ** 2 * u)))

    res = optimize.minimize_scalar(neg, bounds=(-50 * u_max, u_max * (1 - 1e-12)),
                                   method="bounded",
                                   options={"xatol": 1e-12 * u_max})
    return -res.fun
