"""Exception types shared across the package, and the one range and non-zero checks."""


class DomainError(ValueError):
    """A parameter or argument lies outside its mathematical domain."""


class GridMismatchError(ValueError):
    """Two discretized paths do not share the same time grid."""


class QuadratureError(RuntimeError):
    """A quadrature failed to converge on the truncated domain."""


class GrowthError(QuadratureError):
    """An integrand or solution exceeds its declared polynomial growth budget."""


class UnsupportedModelError(ValueError):
    """The requested computation is not available for this model family."""


class SingularSystemError(RuntimeError):
    """A linear system that should be positive definite is numerically singular."""


class SimulationOverflowError(RuntimeError):
    """A simulated path crossed the overflow guard; the batch was aborted."""


class ConfigError(ValueError):
    """Configuration failed to parse or validate.

    Carries the full list of violations, not just the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# bounds as bound_violation reads them
POSITIVE = {"lo": 0, "lo_strict": True}
OPEN_UNIT = {"lo": 0, "hi": 1, "lo_strict": True, "hi_strict": True}
BETA_BOUNDS = {"lo": 0, "hi": 0.5, "lo_strict": True, "hi_strict": True}  # h(eps) = eps^-beta
CORRELATION = {"lo": -1, "hi": 1}
OPEN_CORRELATION = {"lo": -1, "hi": 1, "lo_strict": True, "hi_strict": True}
FINITE = {"lo": -float("inf"), "hi": float("inf"), "lo_strict": True, "hi_strict": True}


def bound_violation(name, value, lo=None, hi=None, lo_strict=False, hi_strict=False) -> None:
    """Raise DomainError("name: must be > lo, got value") for the first bound
    ``value`` breaks; NaN breaks each."""
    if lo is not None and not (value > lo if lo_strict else value >= lo):
        problem = f"must be {'>' if lo_strict else '>='} {lo}"
    elif hi is not None and not (value < hi if hi_strict else value <= hi):
        problem = f"must be {'<' if hi_strict else '<='} {hi}"
    else:
        return
    raise DomainError(f"{name}: {problem}, got {value}")


def nonzero_violation(name, value) -> None:
    """Raise DomainError("name: must be non-zero, got value") for 0 and NaN."""
    if not abs(value) > 0:
        raise DomainError(f"{name}: must be non-zero, got {value}")


def square_root_factor_violation(kappa, theta, xi) -> None:
    """The square-root factor's kappa > 0, theta > 0 and xi != 0, in that order."""
    bound_violation("kappa", kappa, **POSITIVE)
    bound_violation("theta", theta, **POSITIVE)
    nonzero_violation("xi", xi)
