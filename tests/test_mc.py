import dataclasses
import hashlib
import math
import os
import re
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

from mdpvol import (DomainError, RealizedVarLdp, SimConfig, SimulationOverflowError,
                    UnsupportedModelError, estimate_rv_tail,
                    estimate_smalltime_tail, exact_gaussian_call,
                    exact_gaussian_tail, make_constant_sigma, make_heston,
                    rv_mgf, simulate)
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
        assert np.array_equal(a.integrated_variance, b.integrated_variance)

    def test_deterministic_across_chunk_boundary(self, heston):
        config = SimConfig(n_paths=200_000, n_steps=4, t_end=0.1, seed=5)
        a = simulate(heston, config)
        b = simulate(heston, config)
        assert np.array_equal(a.x_terminal, b.x_terminal)

    def test_constant_sigma_gaussian_law(self):
        model = make_constant_sigma(0.2, 0.0)
        t = 0.25
        config = SimConfig(n_paths=400_000, n_steps=8, t_end=t, seed=31)
        batch = simulate(model, config)
        mean, var = -0.5 * 0.04 * t, 0.04 * t
        se_mean = math.sqrt(var / config.n_paths)
        assert abs(batch.x_terminal.mean() - mean) <= 4 * se_mean
        se_var = var * math.sqrt(2 / config.n_paths)
        assert abs(batch.x_terminal.var() - var) <= 4 * se_var

    @pytest.mark.parametrize("rho", [-0.5, -1.0, 0.0])
    def test_end_draw_gives_exact_gaussian_law(self, rho, monkeypatch):
        # sigma = 0.2 beside a moving factor: for every rho the Euler X_t is
        # exactly N(-sigma^2 t / 2, sigma^2 t), whose part orthogonal to Z
        # is the end draw eps alone (all of it at rho = 0, none at rho = -1)
        def kernel(y, out):
            out[0].fill(0.2)
            out[1][...] = -y
            out[2].fill(0.3)

        model = ModelSpec(coeffs_fused=kernel, rho=rho, x0=0.0, y0=0.1, kind="custom",
                          growth=GrowthExponents())
        t, thr = 0.01, 0.04
        config = SimConfig(n_paths=400_000, n_steps=8, t_end=t, seed=123)
        x = simulate(model, config, fields=("x_terminal",)).x_terminal
        assert np.isfinite(x).all()
        mean, var = -0.5 * 0.04 * t, 0.04 * t
        assert abs(x.mean() - mean) <= 4 * math.sqrt(var / config.n_paths)
        assert abs(x.var() - var) <= 4 * var * math.sqrt(2 / config.n_paths)
        k = thr / (math.sqrt(t) * t ** (-0.25))
        est = estimate_smalltime_tail(model, t, k, 0.25, config)
        assert abs(est.p_hat - exact_gaussian_tail(0.2, t, thr)) <= 2 * est.ci_halfwidth

        # another eps stream changes X_t exactly when rho_perp is not 0
        def other_end_draw(seed, chunk_index, use, open_stream=mc._chunk_stream):
            return open_stream(seed + (use == mc._END_STREAM), chunk_index, use)

        monkeypatch.setattr(mc, "_chunk_stream", other_end_draw)
        swapped = simulate(model, config, fields=("x_terminal",)).x_terminal
        assert (swapped.tobytes() == x.tobytes()) == (rho == -1.0)

    def test_factor_nonnegative_under_truncation(self, heston):
        config = SimConfig(n_paths=50_000, n_steps=200, t_end=2.0, seed=19)
        batch = simulate(heston, config)
        assert batch.integrated_variance.min() >= 0.0

    def test_antithetic_doubles_batch(self, heston):
        config = SimConfig(n_paths=1000, n_steps=10, t_end=0.5, seed=5,
                           antithetic=True)
        assert len(simulate(heston, config).x_terminal) == 2000

    def test_antithetic_variance_reduction(self):
        # paired-seed comparison on the price estimator, sign test over 20 seeds
        model = make_constant_sigma(0.2, 0.0)
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

    @pytest.mark.parametrize("u", [-4.0, -2.0, -1.0, 0.5])
    def test_integrated_variance_mgf_matches_heston(self, u):
        # E exp(u V_t) of the Euler engine against exp(rv_mgf(u, t)), the
        # closed-form Heston cumulant function.  The scheme is weak order one;
        # the allowance 0.1 |u| dt (relative) is about three times the bias
        # of 0.035 |u| dt measured on this model (y0 = 2 theta) at dt = 0.02
        # with 2e6 paths.
        model = make_heston(2.0, 0.1, 0.5, -0.5, 0.0, 0.2)
        t, steps = 1.0, 100
        config = SimConfig(n_paths=200_000, n_steps=steps, t_end=t, seed=17)
        v = simulate(model, config, fields=("integrated_variance",)).integrated_variance
        sample = np.exp(u * v)
        exact = math.exp(rv_mgf(RealizedVarLdp(2.0, 0.1, 0.5, 0.2), u, t))
        se = sample.std() / math.sqrt(config.n_paths)
        assert abs(sample.mean() - exact) <= 4 * se + 0.1 * abs(u) * (t / steps) * exact

    def test_swapped_kernel_called_once_per_chunk_and_step(self, heston):
        calls = []

        def counted(y, out):
            calls.append(len(y))
            heston.coeffs_fused(y, out)

        model = dataclasses.replace(heston, coeffs_fused=counted)
        config = SimConfig(n_paths=mc._CHUNK + 5, n_steps=3, t_end=0.01, seed=2)
        swapped = simulate(model, config)
        assert sorted(calls) == [5] * 3 + [mc._CHUNK] * 3
        assert _digest(swapped) == _digest(simulate(heston, config))

    def test_default_batch_computes_every_path_field(self, heston):
        # the fields simulate computes by default are the PathBatch fields
        assert PATH_FIELDS == tuple(f.name for f in fields(PathBatch))
        batch = simulate(heston, SimConfig(n_paths=100, n_steps=3, t_end=0.01, seed=1))
        assert [name for name in PATH_FIELDS if getattr(batch, name) is None] == []

    def test_overflow_guard(self):
        def huge_sigma(y, out):
            out[0].fill(1e9)
            out[1].fill(0.0)
            out[2].fill(0.0)

        model = ModelSpec(coeffs_fused=huge_sigma, rho=0.0, x0=0.0, y0=0.1, kind="custom",
                          growth=GrowthExponents())
        with pytest.raises(SimulationOverflowError):
            simulate(model, SimConfig(n_paths=10, n_steps=5, t_end=1.0, seed=1))


class TestSmalltimeTail:
    def test_constant_sigma_ci_covers_exact(self):
        model = make_constant_sigma(0.2, 0.0)
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
        model = make_constant_sigma(0.2, 0.0)
        config = SimConfig(n_paths=10, n_steps=2, t_end=1.0, seed=0)
        with pytest.raises(UnsupportedModelError, match="'constant_sigma'"):
            estimate_rv_tail(model, 1.0, 0.05, 0.25, config)


class TestSmalltimeCall:
    def test_constant_sigma_ci_covers_exact(self):
        model = make_constant_sigma(0.2, 0.0)
        t, k, beta = 0.01, 0.2, 0.25
        config = SimConfig(n_paths=500_000, n_steps=8, t_end=t, seed=44)
        est = mc.CALL.estimate(model, t, k, beta, config)
        exact = exact_gaussian_call(0.2, t, est.strike_log)
        assert abs(est.value - exact) <= 2 * est.ci_halfwidth

    def test_strike_sign_precondition(self, heston):
        config = SimConfig(n_paths=10, n_steps=2, t_end=0.01, seed=0)
        with pytest.raises(DomainError, match="k"):
            mc.CALL.estimate(heston, 0.01, -0.2, 0.25, config)

    def test_moment_flag_required(self):
        model = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1, moment_flag=False)
        config = SimConfig(n_paths=10, n_steps=2, t_end=0.01, seed=0)
        with pytest.raises(DomainError, match="moment"):
            mc.CALL.estimate(model, 0.01, 0.2, 0.25, config)

    def test_cauchy_schwarz_bound_on_same_batch(self, heston):
        # call price <= sqrt(E e^{2X}) sqrt(P(X >= k_t)) on the same sample
        t, k, beta = 0.01, 0.1, 0.25
        config = SimConfig(n_paths=100_000, n_steps=20, t_end=t, seed=15)
        est = mc.CALL.estimate(heston, t, k, beta, config)
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


def _bare_model():
    def kernel(y, out):
        out[0][...] = 0.2 + 0.1 * np.cos(y)
        out[1][...] = -y
        out[2][...] = np.full_like(y, 0.3)

    return ModelSpec(coeffs_fused=kernel, rho=0.4, x0=0.0, y0=0.5, kind="custom",
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
    from mdpvol import make_power_family, make_stein_stein

    heston = make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1)
    if name == "heston_chunks":
        config = SimConfig(n_paths=3 * (1 << 17) + 1000, n_steps=4, t_end=0.01,
                           seed=11)
        return _digest(simulate(heston, config),
                       estimate_smalltime_tail(heston, 0.01, 0.2, 0.25, config),
                       mc.CALL.estimate(heston, 0.01, 0.2, 0.25, config),
                       estimate_rv_tail(heston, 1.0, 0.05, 0.25, config))
    if name == "heston_antithetic":
        config = SimConfig(n_paths=(1 << 17) + 500, n_steps=6, t_end=0.5,
                           seed=12, antithetic=True)
        return _digest(simulate(heston, config),
                       estimate_rv_tail(heston, 0.5, 0.05, 0.25, config))
    models = {
        "constant_sigma": lambda: make_constant_sigma(0.2, 0.0),
        "stein_stein": lambda: make_stein_stein(0.1, -1.0, 0.3, -0.3, 0.0, 0.2),
        "power_fractional": lambda: make_power_family(0.2, -2.0, 0.5, 1.0, 0.25,
                                                      0.75, -0.4, 0.0, 0.1),
        "bare_handles": _bare_model,
    }
    model = models[name]()
    config = SimConfig(n_paths=(1 << 17) + 300, n_steps=5, t_end=0.05, seed=14)
    return _digest(simulate(model, config),
                   estimate_smalltime_tail(model, 0.05, 0.2, 0.25, config),
                   mc.CALL.estimate(model, 0.05, 0.2, 0.25, config))


# Digests of the full-truncation Euler engine's outputs under the stream
# layout DIGEST_LAYOUT: any change to the draws, the order of the float
# operations or the chunk layout changes them.
DIGEST_LAYOUT = "sfc64-seedseq-2^14-z+eps"
BITWISE_DIGESTS = {
    "heston_chunks": "733745b8180326616bcb2e5d9178d07d49066bb69e4f152d8342275f053f5833",
    "heston_antithetic": "1a25bc9816fa8b041d5abba963872814800a7ae0498112f3c0b5753ff9de9a7a",
    "constant_sigma": "65219af1e08b0153ca0a43578bc61a5c7d9e754ee0ceba7cf86d9e3e43f8d95a",
    "stein_stein": "1f282d927daa9d183a5d079f0a802d9c5e32dd70c8e15b34e88304dce71966e9",
    "power_fractional": "8d74fc246e892dbc5db114fefd4635a9b5829c9ca01be9c0af1aa8a0dd956828",
    "bare_handles": "9971efda8bc22df42f09008cf84171e4ca238661c7d3356cc8ef16385c6f030a",
}


class TestBitwiseLock:
    def test_digests_name_the_layout(self):
        assert mc.STREAM_LAYOUT == DIGEST_LAYOUT

    def test_readme_names_the_layout(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        named = re.findall(r'STREAM_LAYOUT = "([^"]*)"', readme)
        assert named and set(named) == {mc.STREAM_LAYOUT}

    @pytest.mark.parametrize("name", sorted(BITWISE_DIGESTS))
    def test_outputs_unchanged(self, name):
        assert _bitwise_case(name) == BITWISE_DIGESTS[name]


def _set_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(mc, "_worker_count", lambda n_chunks: min(n_chunks, workers))


def _overflow_level(seed: int, n_chunks: int, dt: float, y0: float):
    """A factor level and the lower of the two chunks that cross it.

    With f = 0 and g = 1 the first-step factor is y0 + sqrt(dt) Z; the level
    lies between the second- and third-largest of the chunks' Z maxima.
    """
    peaks = [mc._chunk_stream(seed, j, mc._Z_STREAM).standard_normal(mc._CHUNK).max()
             for j in range(n_chunks)]
    order = np.argsort(peaks)
    z_level = 0.5 * (peaks[order[-2]] + peaks[order[-3]])
    assert sorted(order[-2:]) == [1, 2]
    return y0 + math.sqrt(dt) * z_level, min(order[-2:])


class TestThreadedChunks:
    @pytest.mark.parametrize("cpus, expected", [(4, [1, 3, 4]), (None, [1, 1, 1])])
    def test_worker_count_without_affinity(self, monkeypatch, cpus, expected):
        # where os.sched_getaffinity is missing, the core count is cpu_count(),
        # or 1 when that is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert [mc._worker_count(n_chunks) for n_chunks in (1, 3, 8)] == expected

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

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_whole_chunks_independent_of_later_paths(self, heston, antithetic):
        # the first k whole chunks of a batch are the same bytes whatever
        # number of paths follows them
        head = 2 * mc._CHUNK
        copies = 2 if antithetic else 1

        def run(n_paths):
            return simulate(heston, SimConfig(n_paths=n_paths, n_steps=3, t_end=0.01,
                                              seed=9, antithetic=antithetic))

        short = run(head)
        for extra in (1, mc._CHUNK + 77):
            longer = run(head + extra)
            for name in PATH_FIELDS:
                assert (getattr(longer, name)[:copies * head].tobytes()
                        == getattr(short, name).tobytes())

    def test_only_requested_fields(self, heston):
        config = SimConfig(n_paths=5000, n_steps=10, t_end=0.5, seed=6)
        full = simulate(heston, config)
        for name in PATH_FIELDS:
            batch = simulate(heston, config, fields=(name,))
            assert len(getattr(batch, name)) == 5000
            for other in PATH_FIELDS:
                value = getattr(batch, other)
                if other == name:
                    assert value.tobytes() == getattr(full, other).tobytes()
                else:
                    assert value is None
        with pytest.raises(DomainError, match="fields"):
            simulate(heston, config, fields=("x_max",))

    def test_overflow_names_lowest_chunk(self, monkeypatch):
        # f = 0 and g = 1, and sigma jumps to 1e9 once Y passes a level, so a
        # chunk overflows in its second step exactly when a first-step factor
        # increment of it (a Z draw) crosses the level; the level is placed so
        # that two of four chunks overflow.  At this seed they are chunks 1
        # and 2, which two workers run on different threads, chunk 2 as its
        # first.
        seed, n_chunks, dt, y0 = 10, 4, 0.5, 0.1
        level, expected = _overflow_level(seed, n_chunks, dt, y0)

        def kernel(y, out):
            out[0][...] = np.where(y > level, 1e9, 0.2)
            out[1].fill(0.0)
            out[2].fill(1.0)

        model = ModelSpec(coeffs_fused=kernel, rho=0.0, x0=0.0, y0=y0, kind="custom",
                          growth=GrowthExponents())
        config = SimConfig(n_paths=n_chunks * mc._CHUNK, n_steps=2, t_end=2 * dt,
                           seed=seed)
        for workers in (1, 2, 4):
            _set_workers(monkeypatch, workers)
            with pytest.raises(SimulationOverflowError, match=f"chunk {expected};"):
                simulate(model, config)

    def test_variance_overflow_names_lowest_chunk(self, monkeypatch):
        # a batch that asks for V alone forms no X, so the guard reads V: the
        # factor drift jumps to 1e15 once Y passes the level of the test
        # above, and V of the same two chunks 1 and 2 crosses the guard
        seed, n_chunks, dt, y0 = 10, 4, 0.5, 0.1
        level, expected = _overflow_level(seed, n_chunks, dt, y0)

        def kernel(y, out):
            out[0].fill(0.2)
            out[1][...] = np.where(y > level, 1e15, 0.0)
            out[2].fill(1.0)

        model = ModelSpec(coeffs_fused=kernel, rho=0.0, x0=0.0, y0=y0, kind="custom",
                          growth=GrowthExponents())
        config = SimConfig(n_paths=n_chunks * mc._CHUNK, n_steps=2, t_end=2 * dt,
                           seed=seed)
        for workers in (1, 2, 4):
            _set_workers(monkeypatch, workers)
            with pytest.raises(SimulationOverflowError, match=f"chunk {expected};"):
                simulate(model, config, fields=("integrated_variance",))
            # X stays bounded, and a batch without V does not read it
            assert np.isfinite(simulate(model, config, fields=("x_terminal",))
                               .x_terminal).all()

    @pytest.mark.parametrize("n_paths", [1 << 16, 3 << 17, 200_000, 1_000_000])
    def test_two_workers_share_paths_evenly(self, monkeypatch, n_paths):
        # the batch sizes of the benchmark and of criteria 7-9: on two workers
        # neither runs more than 52% of the paths.  The pool runs the workers
        # one after the other here, so each chunk stream opened is credited
        # to the worker that opened it.
        running = []
        owner = {}

        class SerialPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                results = []
                for item in items:
                    running[:] = [item]
                    results.append(fn(item))
                return results

        def stream(seed, chunk_index, use, open_stream=mc._chunk_stream):
            owner[chunk_index] = running[0] if running else 0
            return open_stream(seed, chunk_index, use)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(mc, "_chunk_stream", stream)
        _set_workers(monkeypatch, 2)
        simulate(make_constant_sigma(0.2, 0.0),
                 SimConfig(n_paths=n_paths, n_steps=1, t_end=0.01, seed=3),
                 fields=("x_terminal",))
        share = [0, 0]
        for chunk_index, worker in owner.items():
            share[worker] += min(mc._CHUNK, n_paths - chunk_index * mc._CHUNK)
        assert sum(share) == n_paths
        assert max(share) <= 0.52 * n_paths, share
