"""Normalization and limit constants of the rescaled two-factor system.

The rescaled process (delta X_{(eps/delta^2) t}, Y_{(eps/delta^2) t}) solves

    dX^eps = (eps/delta) * (-1/2 sigma^2) dt + sqrt(eps) sigma dW,
    dY^eps = (eps/delta^2) f dt + (sqrt(eps)/delta) g dZ,

so small-(eps, delta) asymptotics of the rescaled system translate into
small-time (delta = 1) or scaled large-time (eps/delta -> gamma) statements
about the original model, which is what the estimators simulate.  The
moderate-deviations normalization is sqrt(eps) h(eps) with h(eps) =
eps^{-beta}, beta in (0, 1/2); the family is restricted to this power form
because every concrete regime of interest uses it and a general h adds
nothing testable.

Deviations of eps/delta from its limit gamma are parametrized exactly as
eps/delta = gamma + zeta_c * sqrt(eps) h(eps), which makes the limit constant
zeta equal to zeta_c rather than a numerically estimated limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class ScalingRegime:
    """Normalization h(eps) = eps^{-beta} plus the limit constants gamma and zeta.

    beta in (0, 1/2) guarantees h(eps) -> infinity while sqrt(eps) h(eps) -> 0;
    zeta_c is the exact coefficient in eps/delta = gamma + zeta_c sqrt(eps) h(eps)
    and must be finite.
    """

    beta: float
    gamma: float = 1.0
    zeta_c: float = 0.0

    def __post_init__(self):
        if not 0 < self.beta < 0.5:
            raise DomainError(f"beta: must lie in (0, 1/2), got {self.beta}")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise DomainError(f"gamma: must lie in (0, inf), got {self.gamma}")
        if not math.isfinite(self.zeta_c):
            raise DomainError(f"zeta_c: must be finite, got {self.zeta_c}")


def mdp_growth_condition(q_g: float, q_h: float, beta: float) -> bool:
    """Whether sqrt(eps) h(eps)^{(q_g + q_h - 1)/(1 - q_g)} vanishes for h = eps^{-beta}.

    Equivalent to 1/2 - beta (q_g + q_h - 1) / (1 - q_g) > 0; for q_h = 1 this
    reduces to q_g < 1 / (2 beta + 1).
    """
    if not 0 <= q_g < 1:
        raise DomainError(f"q_g: must lie in [0, 1), got {q_g}")
    if not 0 < beta < 0.5:
        raise DomainError(f"beta: must lie in (0, 1/2), got {beta}")
    return 0.5 - beta * (q_g + q_h - 1) / (1 - q_g) > 0
