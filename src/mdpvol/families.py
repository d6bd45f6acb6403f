"""Model kinds: ``MODELS`` is the one table of them, ``family(model)`` the one
dispatch on a model's kind.

Each kind is one ``Family`` subclass, which carries the kind's preset, the
keys the preset reads with their defaults (in its argument order), and the
facts the kind has.  The base ``Family`` refuses every fact with an
``UnsupportedModelError`` that names the kind; each family overrides only the
facts it has.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from .errors import DomainError, UnsupportedModelError
from .invariant import InvariantMeasure, gamma_invariant, speed_measure
from .models import (ModelSpec, is_cir_form, make_constant_sigma, make_heston,
                     make_power_family, make_stein_stein)


class Family:
    def __init__(self, model: ModelSpec):
        self.model = model

    def _refuse(self, fact: str):
        raise UnsupportedModelError(f"no {fact} for kind '{self.model.kind}'")

    def square_root_factor(self) -> tuple[float, float, float]:
        """(kappa, theta, xi) of the factor dY = kappa (theta - Y) dt + xi sqrt(Y) dZ."""
        self._refuse("square-root factor")

    def invariant(self) -> InvariantMeasure:
        """The invariant measure of the fast factor."""
        self._refuse("invariant-measure construction")

    def share_measure(self) -> ModelSpec:
        """Dynamics under the measure with density e^{X_t}: the drift of X flips
        sign (x_drift_coeff = +1/2) and the factor drift gains rho g sigma."""
        self._refuse("share-measure tilt")


class Heston(Family):
    # the reference parameter set, chosen independently and documented here:
    # the source figure lists its parameters ambiguously, so they are
    # deliberately not treated as canonical defaults
    preset = staticmethod(make_heston)
    defaults = {"kappa": 2.0, "theta": 0.1, "xi": 0.5, "rho": -0.5, "x0": 0.0, "y0": 0.1}

    def square_root_factor(self):
        p = self.model.params
        return p["kappa"], p["theta"], p["xi"]

    def invariant(self):
        return gamma_invariant(*self.square_root_factor())

    def share_measure(self):
        """kappa_q = kappa - rho xi > 0 and theta_q = kappa theta / kappa_q."""
        model = self.model
        kappa, theta, xi = self.square_root_factor()
        kappa_q = kappa - model.rho * xi
        if kappa_q <= 0:
            raise DomainError(
                f"kappa - rho xi = {kappa_q:g} must be positive for the tilted factor")
        tilted = make_heston(kappa_q, kappa * theta / kappa_q, xi, model.rho,
                             model.x0, model.y0, moment_flag=model.finite_exp_moments)
        return replace(tilted, x_drift_coeff=0.5)


class SteinStein(Family):
    preset = staticmethod(make_stein_stein)
    defaults = {"a": 0.0, "b": -1.0, "c": 0.3, "rho": -0.5, "x0": 0.0, "y0": 0.1}

    def share_measure(self):
        """b_q = b + rho c < 0."""
        model = self.model
        p = model.params
        b_q = p["b"] + model.rho * p["c"]
        if b_q >= 0:
            raise DomainError(
                f"b + rho c = {b_q:g} must be negative for the tilted factor")
        tilted = make_stein_stein(p["a"], b_q, p["c"], model.rho, model.x0,
                                  model.y0, moment_flag=model.finite_exp_moments)
        return replace(tilted, x_drift_coeff=0.5)


class Power(Family):
    preset = staticmethod(make_power_family)
    defaults = {"a": 0.2, "b": -2.0, "c_g": 0.5, "c_sigma": 1.0, "nu_g": 0.5,
                "nu_sigma": 0.5, "rho": -0.5, "x0": 0.0, "y0": 0.1}

    def invariant(self):
        """The speed measure, at every nu_g in [1/2, 1)."""
        if not is_cir_form(self.model):
            raise UnsupportedModelError(
                "power model is not of mean-reverting power-diffusion form")
        p = self.model.params
        return speed_measure(-p["b"], p["a"] / (-p["b"]), p["c_g"], p["nu_g"])


class ConstantSigma(Family):
    preset = staticmethod(make_constant_sigma)
    defaults = {"c_sigma": 0.2, "x0": 0.0}


MODELS: Mapping[str, type[Family]] = {
    "heston": Heston, "stein_stein": SteinStein, "power": Power,
    "constant_sigma": ConstantSigma,
}


def family(model: ModelSpec) -> Family:
    """The family object of a built model; a kind outside ``MODELS`` gets ``Family``."""
    return MODELS.get(model.kind, Family)(model)
