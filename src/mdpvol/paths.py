"""Time-discretized paths on uniform grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError


@dataclass(frozen=True)
class DiscretePath:
    """A path sampled on a uniform grid 0 = t_0 < ... < t_N = T.

    ``values`` has shape (N+1,) for scalar paths or (N+1, 2) for paired ones.
    Values must be finite; rate functionals additionally require a zero start
    and return an infinite rate otherwise.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or len(times) < 2:
            raise DomainError("times: need at least two grid points")
        if len(values) != len(times):
            raise DomainError("values: length must match times")
        if not np.all(np.isfinite(values)):
            raise DomainError("values: must be finite")
        dt = np.diff(times)
        if times[0] != 0.0 or np.any(dt <= 0):
            raise DomainError("times: grid must start at 0 and increase")
        if np.max(np.abs(dt - dt[0])) > 1e-12 * max(times[-1], 1.0):
            raise DomainError("times: grid must be uniform")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def starts_at_zero(self) -> bool:
        return bool(np.all(self.values[0] == 0.0))


def require_same_grid(*paths: DiscretePath) -> None:
    first = paths[0].times
    for p in paths[1:]:
        if len(p.times) != len(first) or not np.allclose(p.times, first, rtol=0, atol=1e-12):
            raise GridMismatchError("paths must share the same time grid")
