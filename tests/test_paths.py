import numpy as np
import pytest

from mdpvol import DiscretePath, DomainError
from mdpvol.paths import require_same_grid
from mdpvol.errors import GridMismatchError


class TestDiscretePath:
    def test_from_function(self):
        times = np.linspace(0.0, 1.0, 5)
        path = DiscretePath(times, 2 * times)
        assert path.n_steps == 4
        assert path.dt == 0.25
        assert path.times[-1] == 1.0
        np.testing.assert_allclose(path.values, 2 * path.times)

    def test_starts_at_zero(self):
        times = np.linspace(0, 1, 5)
        assert DiscretePath(times, 0 * times).starts_at_zero()
        assert not DiscretePath(times, 1 + 0 * times).starts_at_zero()

    @pytest.mark.parametrize("times, values", [
        ([0.0, 0.5, 0.75], [0, 0, 0]),          # non-uniform
        ([0.5, 1.0], [0, 0]),                   # does not start at 0
        ([0.0, 1.0], [0, np.nan]),              # non-finite value
        ([0.0], [0.0]),                         # too short
        ([0.0, 1.0], [0.0, 1.0, 2.0]),          # length mismatch
    ])
    def test_validation(self, times, values):
        with pytest.raises(DomainError):
            DiscretePath(np.asarray(times), np.asarray(values))

    def test_grid_comparison(self):
        times = np.linspace(0.0, 1.0, 9)
        fine = np.linspace(0.0, 1.0, 17)
        a = DiscretePath(times, times)
        b = DiscretePath(times, -times)
        c = DiscretePath(fine, fine)
        require_same_grid(a, b)
        with pytest.raises(GridMismatchError):
            require_same_grid(a, c)
