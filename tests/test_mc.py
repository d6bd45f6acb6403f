import hashlib
import math
import sys
from dataclasses import astuple, fields

import numpy as np
import pytest

from mdpvol import (DomainError, SimConfig, SimulationOverflowError,
                    UnsupportedModelError, estimate_call_smalltime, estimate_rv_tail,
                    estimate_smalltime_tail, exact_gaussian_call,
                    exact_gaussian_tail, make_constant_sigma, make_heston,
                    rescaled_coefficients, simulate)
from mdpvol import mc
from mdpvol.mc import PATH_FIELDS, PathBatch
from mdpvol.models import GrowthExponents, ModelSpec


@pytest.fixture(scope="module")
def heston():
    return make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)


class TestSimulate:
    def test_deterministic_bitwise(self, heston):
        config = SimConfig(n_paths=1, n_steps=32, t_end=0.5, seed=77)
        a = simulate(heston, config)
        b = simulate(heston, config)
        assert np.array_equal(a.x_terminal, b.x_terminal)
        assert np.array_equal(a.y_terminal, b.y_terminal)
        assert np.array_equal(a.integrated_variance, b.integrated_variance)
        assert np.array_equal(a.x_running_max, b.x_running_max)

    def test_deterministic_across_chunk_boundary(self, heston):
        config = SimConfig(n_paths=200_000, n_steps=4, t_end=0.1, seed=5)
        a = simulate(heston, config)
        b = simulate(heston, config)
        assert np.array_equal(a.x_terminal, b.x_terminal)

    def test_constant_sigma_gaussian_law(self):
        model = make_constant_sigma(0.2)
        t = 0.25
        config = SimConfig(n_paths=400_000, n_steps=8, t_end=t, seed=31)
        batch = simulate(model, config)
        mean, var = -0.5 * 0.04 * t, 0.04 * t
        se_mean = math.sqrt(var / config.n_paths)
        assert abs(batch.x_terminal.mean() - mean) <= 4 * se_mean
        se_var = var * math.sqrt(2 / config.n_paths)
        assert abs(batch.x_terminal.var() - var) <= 4 * se_var

    def test_factor_nonnegative_under_truncation(self, heston):
        config = SimConfig(n_paths=50_000, n_steps=200, t_end=2.0, seed=19)
        batch = simulate(heston, config)
        assert batch.y_terminal.min() >= 0.0
        assert batch.integrated_variance.min() >= 0.0

    def test_running_max_dominates_terminal(self, heston):
        config = SimConfig(n_paths=10_000, n_steps=50, t_end=1.0, seed=3)
        batch = simulate(heston, config)
        assert np.all(batch.x_running_max >= batch.x_terminal)

    def test_antithetic_doubles_batch(self, heston):
        config = SimConfig(n_paths=1000, n_steps=10, t_end=0.5, seed=5,
                           antithetic=True)
        assert simulate(heston, config).size == 2000

    def test_antithetic_variance_reduction(self):
        # paired-seed comparison on the price estimator, sign test over 20 seeds
        model = make_constant_sigma(0.2)
        t = 1.0
        wins = 0
        for seed in range(20):
            plain = SimConfig(n_paths=4000, n_steps=16, t_end=t, seed=seed)
            anti = SimConfig(n_paths=2000, n_steps=16, t_end=t, seed=seed,
                             antithetic=True)
            exact = 1.0  # E exp(X_t) = exp(x0) for the driftless-price model
            err_plain = abs(np.exp(simulate(model, plain).x_terminal).mean() - exact)
            err_anti = abs(np.exp(simulate(model, anti).x_terminal).mean() - exact)
            wins += err_anti < err_plain
        assert wins >= 14  # one-sided binomial: P(X >= 14 | p = 1/2) < 0.06

    def test_weak_convergence_trend(self):
        # Euler weak error on E X_t halves as steps double for a y-dependent model
        model = make_heston(2.0, 0.1, 0.5, -0.5, 0.0, 0.2)
        t = 1.0
        errs = []
        for steps in (4, 8, 16):
            means = []
            for seed in range(10):
                cfg = SimConfig(n_paths=200_000, n_steps=steps, t_end=t, seed=seed)
                means.append(simulate(model, cfg).x_terminal.mean())
            exact = -0.5 * (0.1 * t + (0.2 - 0.1) * (1 - math.exp(-2 * t)) / 2)
            errs.append(abs(np.mean(means) - exact))
        assert errs[0] > errs[1] > errs[2]

    def test_rescaled_system_matches_smalltime_law(self, heston):
        eps = 0.01
        scaled = rescaled_coefficients(heston, eps, 1.0)
        a = simulate(heston, SimConfig(n_paths=50_000, n_steps=64, t_end=1.0,
                                       seed=9), scaled=scaled)
        b = simulate(heston, SimConfig(n_paths=50_000, n_steps=64, t_end=eps,
                                       seed=9))
        # identical driving noise, identical laws: means agree to roundoff
        assert a.x_terminal.mean() == pytest.approx(b.x_terminal.mean(), abs=1e-12)

    def test_overflow_guard(self):
        def huge_sigma(x, y):
            return np.full_like(np.asarray(y, dtype=float), 1e9)

        def zero(x, y):
            return np.zeros_like(np.asarray(y, dtype=float))

        model = ModelSpec(sigma=huge_sigma, f=zero, g=zero, rho=0.0, x0=0.0,
                          y0=0.1, kind="custom", growth=GrowthExponents())
        with pytest.raises(SimulationOverflowError):
            simulate(model, SimConfig(n_paths=10, n_steps=5, t_end=1.0, seed=1))


class TestSmalltimeTail:
    def test_constant_sigma_ci_covers_exact(self):
        model = make_constant_sigma(0.2)
        t, thr = 0.01, 0.04
        exact = exact_gaussian_tail(0.2, t, thr)
        assert exact == pytest.approx(0.0222155944, abs=1e-9)
        k = thr / (math.sqrt(t) * t ** (-0.25))
        config = SimConfig(n_paths=500_000, n_steps=8, t_end=t, seed=123)
        est = estimate_smalltime_tail(model, t, k, 0.25, config)
        assert est.threshold == pytest.approx(thr)
        assert abs(est.p_hat - exact) <= 2 * est.ci_halfwidth

    def test_heston_target(self, heston):
        config = SimConfig(n_paths=1000, n_steps=10, t_end=0.01, seed=1)
        est = estimate_smalltime_tail(heston, 0.01, 0.2, 0.25, config)
        assert est.analytic_target == pytest.approx(-0.2, rel=1e-12)

    def test_zero_threshold_near_half(self, heston):
        config = SimConfig(n_paths=200_000, n_steps=20, t_end=0.01, seed=8)
        est = estimate_smalltime_tail(heston, 0.01, 0.0, 0.25, config)
        assert est.analytic_target == 0.0
        assert est.p_hat == pytest.approx(0.5, abs=0.02)

    def test_zero_hit_sentinel(self, heston):
        config = SimConfig(n_paths=100, n_steps=10, t_end=0.01, seed=2)
        est = estimate_smalltime_tail(heston, 0.01, 5.0, 0.25, config)
        assert est.p_hat == 0.0
        assert est.normalized_log == -math.inf

    def test_domain(self, heston):
        config = SimConfig(n_paths=10, n_steps=2, t_end=0.01, seed=0)
        with pytest.raises(DomainError):
            estimate_smalltime_tail(heston, 2.0, 0.2, 0.25, config)
        with pytest.raises(DomainError):
            estimate_smalltime_tail(heston, 0.01, 0.2, 0.7, config)


class TestRvTail:
    def test_target_value(self, heston):
        config = SimConfig(n_paths=1000, n_steps=50, t_end=25.0, seed=1)
        est = estimate_rv_tail(heston, 25.0, 0.05, 0.25, config)
        assert est.analytic_target == pytest.approx(-0.2, rel=1e-12)

    def test_threshold_accounts_for_mean_drift(self, heston):
        config = SimConfig(n_paths=1000, n_steps=50, t_end=25.0, seed=1)
        est = estimate_rv_tail(heston, 25.0, 0.05, 0.25, config)
        assert est.threshold == pytest.approx(0.05 * 25 ** 0.75 + 0.1 * 25)

    def test_target_continuous_in_x(self, heston):
        config = SimConfig(n_paths=100, n_steps=10, t_end=25.0, seed=1)
        small = estimate_rv_tail(heston, 25.0, 1e-6, 0.25, config)
        assert small.analytic_target == pytest.approx(0.0, abs=1e-10)

    def test_requires_square_root_model(self):
        model = make_constant_sigma(0.2)
        config = SimConfig(n_paths=10, n_steps=2, t_end=1.0, seed=0)
        with pytest.raises(UnsupportedModelError, match="'constant_sigma'"):
            estimate_rv_tail(model, 1.0, 0.05, 0.25, config)


class TestSmalltimeCall:
    def test_constant_sigma_ci_covers_exact(self):
        model = make_constant_sigma(0.2)
        t, k, beta = 0.01, 0.2, 0.25
        config = SimConfig(n_paths=500_000, n_steps=8, t_end=t, seed=44)
        est = estimate_call_smalltime(model, t, k, beta, config)
        exact = exact_gaussian_call(0.2, t, est.strike_log)
        assert abs(est.value - exact) <= 2 * est.ci_halfwidth

    def test_strike_sign_precondition(self, heston):
        config = SimConfig(n_paths=10, n_steps=2, t_end=0.01, seed=0)
        with pytest.raises(DomainError, match="k"):
            estimate_call_smalltime(heston, 0.01, -0.2, 0.25, config)

    def test_moment_flag_required(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1, moment_flag=False)
        config = SimConfig(n_paths=10, n_steps=2, t_end=0.01, seed=0)
        with pytest.raises(DomainError, match="moment"):
            estimate_call_smalltime(model, 0.01, 0.2, 0.25, config)

    def test_cauchy_schwarz_bound_on_same_batch(self, heston):
        # call price <= sqrt(E e^{2X}) sqrt(P(X >= k_t)) on the same sample
        t, k, beta = 0.01, 0.1, 0.25
        config = SimConfig(n_paths=100_000, n_steps=20, t_end=t, seed=15)
        est = estimate_call_smalltime(heston, t, k, beta, config)
        batch = simulate(heston, SimConfig(n_paths=100_000, n_steps=20,
                                           t_end=t, seed=15))
        p_hat = np.mean(batch.x_terminal >= est.strike_log)
        second = np.mean(np.exp(2 * batch.x_terminal))
        assert est.value <= math.sqrt(second) * math.sqrt(p_hat) + 1e-15


class TestEstimateDeterminism:
    def test_identical_estimates(self, heston):
        config = SimConfig(n_paths=50_000, n_steps=25, t_end=0.01, seed=21)
        a = estimate_smalltime_tail(heston, 0.01, 0.2, 0.25, config)
        b = estimate_smalltime_tail(heston, 0.01, 0.2, 0.25, config)
        assert a == b


def _lsv_model():
    from mdpvol.models import make_lsv

    return make_lsv(lambda x: 0.3 + 0.1 * np.tanh(x),
                    lambda y: np.sqrt(np.maximum(y, 0.0)),
                    lambda x, y: 2.0 * (0.1 - np.maximum(y, 0.0)),
                    lambda x, y: 0.5 * np.sqrt(np.maximum(y, 0.0)),
                    -0.5, 0.0, 0.1, GrowthExponents(q_sigma=0.5, q_g=0.5))


def _bare_model():
    return ModelSpec(sigma=lambda x, y: 0.2 + 0.1 * np.cos(y),
                     f=lambda x, y: -y, g=lambda x, y: np.full_like(y, 0.3),
                     rho=0.4, x0=0.0, y0=0.5, kind="custom",
                     growth=GrowthExponents())


def _digest(*parts) -> str:
    """SHA-256 over every PathBatch array and the repr of each estimate's fields."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, PathBatch):
            for f in fields(part):
                digest.update(getattr(part, f.name).tobytes())
        else:
            digest.update(repr(astuple(part)).encode())
    return digest.hexdigest()


def _bitwise_case(name: str) -> str:
    from mdpvol import (make_power_family, make_stein_stein,
                        rescaled_coefficients)

    heston = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
    if name == "heston_chunks":
        config = SimConfig(n_paths=3 * (1 << 17) + 1000, n_steps=4, t_end=0.01,
                           seed=11)
        return _digest(simulate(heston, config),
                       estimate_smalltime_tail(heston, 0.01, 0.2, 0.25, config),
                       estimate_call_smalltime(heston, 0.01, 0.2, 0.25, config),
                       estimate_rv_tail(heston, 1.0, 0.05, 0.25, config))
    if name == "heston_antithetic":
        config = SimConfig(n_paths=(1 << 17) + 500, n_steps=6, t_end=0.5,
                           seed=12, antithetic=True)
        return _digest(simulate(heston, config),
                       estimate_rv_tail(heston, 0.5, 0.05, 0.25, config))
    if name == "heston_scaled":
        config = SimConfig(n_paths=20_000, n_steps=16, t_end=1.0, seed=13)
        return _digest(simulate(heston, config,
                                scaled=rescaled_coefficients(heston, 0.01, 1.0)))
    models = {
        "constant_sigma": lambda: make_constant_sigma(0.2),
        "stein_stein": lambda: make_stein_stein(0.1, -1.0, 0.3, -0.3, 0.0, 0.2),
        "power_fractional": lambda: make_power_family(0.2, -2.0, 0.5, 1.0, 0.25,
                                                      0.75, -0.4, 0.0, 0.1),
        "lsv": _lsv_model,
        "bare_handles": _bare_model,
    }
    model = models[name]()
    config = SimConfig(n_paths=(1 << 17) + 300, n_steps=5, t_end=0.05, seed=14)
    return _digest(simulate(model, config),
                   estimate_smalltime_tail(model, 0.05, 0.2, 0.25, config),
                   estimate_call_smalltime(model, 0.05, 0.2, 0.25, config))


# Digests of the full-truncation Euler engine's outputs, recorded before the
# engine was restructured: any change to the draws, the order of the float
# operations or the chunk layout changes them.
BITWISE_DIGESTS = {
    "heston_chunks": "e095ca5237781ca79c8f88ba72679fe066068f84f1fbb36336272504d282d43b",
    "heston_antithetic": "0668aa49e52228a531e2e18706e58fc0d8646577a4765e00fe8242ff37e1809c",
    "heston_scaled": "82bfa1ca38f8f41dc7ffb9e132c00fe0581916a56d8b8ff200f551e1f3671c9e",
    "constant_sigma": "43a980124a0da17aabad0029835995517c92c624d4b4613b51ce6a64ba7f45ca",
    "stein_stein": "aa7bd8e8879fc053ed4c35502386fb69a3a34eb77afef35c0f09b631d14bc9a5",
    "power_fractional": "d76a4b7d95b53647f4b11efaeb4884d2f33b53e48a44dcf009adb252b6216d77",
    "lsv": "f5815c0cc04b75e75b8e669c2393f93035972afbaaa668dc62d06b777368982b",
    "bare_handles": "0f64ced0234aa79e4e8bcfe3e7dcf20f646847b25eab36a1a2b10d21561c93fa",
}


class TestBitwiseLock:
    @pytest.mark.parametrize("name", sorted(BITWISE_DIGESTS))
    def test_outputs_unchanged(self, name):
        assert _bitwise_case(name) == BITWISE_DIGESTS[name]


def _set_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(mc, "_worker_count", lambda n_chunks: min(n_chunks, workers))


class TestThreadedChunks:
    def test_threaded_matches_serial(self, heston, monkeypatch):
        config = SimConfig(n_paths=3 * (1 << 17) + 1000, n_steps=3, t_end=0.01,
                           seed=4, antithetic=True)
        default = simulate(heston, config)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the worker threads finely
        try:
            for workers in (1, 3):
                _set_workers(monkeypatch, workers)
                runs.append((simulate(heston, config),
                             estimate_rv_tail(heston, 0.5, 0.05, 0.25, config)))
        finally:
            sys.setswitchinterval(interval)
        for name in PATH_FIELDS:
            expected = getattr(runs[0][0], name).tobytes()
            assert getattr(default, name).tobytes() == expected
            assert getattr(runs[1][0], name).tobytes() == expected
        assert repr(astuple(runs[0][1])) == repr(astuple(runs[1][1]))

    def test_only_requested_fields(self, heston):
        config = SimConfig(n_paths=5000, n_steps=10, t_end=0.5, seed=6)
        full = simulate(heston, config)
        for name in PATH_FIELDS:
            batch = simulate(heston, config, fields=(name,))
            assert batch.size == 5000
            for other in PATH_FIELDS:
                value = getattr(batch, other)
                if other == name:
                    assert value.tobytes() == getattr(full, other).tobytes()
                else:
                    assert value is None
        with pytest.raises(DomainError, match="fields"):
            simulate(heston, config, fields=("x_max",))

    def test_overflow_names_lowest_chunk(self, monkeypatch):
        # sigma jumps to 1e9 once X passes a level, so a chunk overflows in
        # its second step exactly when a first-step increment of it crosses
        # the level; the level is placed so that two of four chunks overflow.
        # At this seed they are chunks 1 and 2, which two workers run on
        # different threads, chunk 2 as its first.
        seed, n_chunks, dt = 7, 4, 0.5
        peaks = [mc._philox(seed, j).standard_normal((2, 1 << 17))[1].max()
                 for j in range(n_chunks)]
        order = np.argsort(peaks)
        z_level = 0.5 * (peaks[order[-2]] + peaks[order[-3]])
        level = -0.5 * 0.2 ** 2 * dt + math.sqrt(dt) * 0.2 * z_level
        expected = min(order[-2:])
        assert sorted(order[-2:]) == [1, 2]

        def sigma(x, y):
            return np.where(x > level, 1e9, 0.2)

        def zero(x, y):
            return np.zeros_like(y)

        model = ModelSpec(sigma=sigma, f=zero, g=zero, rho=0.0, x0=0.0, y0=0.1,
                          kind="custom", growth=GrowthExponents())
        config = SimConfig(n_paths=n_chunks << 17, n_steps=2, t_end=2 * dt, seed=seed)
        for workers in (1, 2, 4):
            _set_workers(monkeypatch, workers)
            with pytest.raises(SimulationOverflowError, match=f"chunk {expected};"):
                simulate(model, config)
