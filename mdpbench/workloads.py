"""The three workloads: one operation each, and the checks of its output.

Every check compares mdpvol's output with the oracles in ``oracles``, which
do not import mdpvol.  ``run(i, model)`` performs operation ``i``;
``check(i, output)`` returns the list of violations (empty when correct).
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import tempfile
from dataclasses import astuple, fields, replace

import mdpvol
import mdpvol.config
import mdpvol.mc
import mdpvol.reporting

import inputs
import oracles

# MC acceptance: |p_hat - p| <= Z_MC * se(p) + EULER_REL * p, with se(p) the
# binomial standard error at the exact p.  Z_MC = 5 makes a spurious failure
# of a correct engine about 6e-7 per operation, whatever the seed.  EULER_REL
# bounds the weak error of the full-truncation Euler scheme at the
# workloads' step sizes, measured at +0.26% and +0.43% of p (README).
Z_MC = 5.0
EULER_REL = 0.02


def _bits(values) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


class _TailWorkload:
    """Shared shape of the two Monte Carlo tail workloads."""

    name: str
    spec: dict

    def __init__(self, seed: int):
        self.seed = seed
        self.model, self.sim = inputs.build(self.name, seed)
        self.p_exact = self.exact()

    def config(self, i: int, **overrides):
        return replace(self.sim, seed=inputs.derived_seed(self.seed, f"op-{i}"),
                       **overrides)

    def run(self, i: int, model):
        return self.run_config(self.config(i), model)

    def check(self, i: int, est) -> list[str]:
        bad = []
        n = self.spec["n_paths"]
        p = self.p_exact
        tol = Z_MC * math.sqrt(p * (1 - p) / n) + EULER_REL * p
        if est.n_paths != n:
            bad.append(f"op {i}: n_paths {est.n_paths}, expected {n}")
        if not abs(est.p_hat - p) <= tol:
            bad.append(f"op {i}: p_hat {est.p_hat!r} vs exact {p!r} (tol {tol:.3g})")
        if est.p_hat > 0:
            normalized = math.log(est.p_hat) / self.speed
            if not abs(est.normalized_log - normalized) <= 1e-12 * abs(normalized):
                bad.append(f"op {i}: normalized_log {est.normalized_log!r}, "
                           f"expected {normalized!r}")
        if not abs(est.analytic_target - self.target) <= 1e-12 * abs(self.target):
            bad.append(f"op {i}: analytic_target {est.analytic_target!r}, "
                       f"expected {self.target!r}")
        return bad

    def determinism(self) -> list[str]:
        """Two estimator calls, and two batches, at one seed must agree bitwise.

        A reduced config keeps this cheap; it still spans three chunks.
        """
        config = self.config(-1, n_paths=2 * (1 << 17) + 1000, n_steps=10)
        first, second = self.run_config(config), self.run_config(config)
        bad = []
        if _bits(astuple(first)) != _bits(astuple(second)):
            bad.append(f"estimator not reproducible: {first} != {second}")
        batch = [mdpvol.mc.simulate(self.model, replace(config, t_end=self.spec["t"]))
                 for _ in range(2)]
        for f in fields(batch[0]):
            a, b = getattr(batch[0], f.name), getattr(batch[1], f.name)
            if a is not None and a.tobytes() != b.tobytes():
                bad.append(f"PathBatch.{f.name} not reproducible at one seed")
        return bad

    def self_test(self) -> list[str]:
        return oracles.self_test()


class SmalltimeTail(_TailWorkload):
    name = "smalltime_tail"
    spec = inputs.SMALLTIME

    def exact(self) -> float:
        t, k = self.spec["t"], self.spec["k"]
        h = t ** -inputs.BETA
        self.speed = h ** 2
        self.target = -k ** 2 / (2 * inputs.REFERENCE["y0"])
        self.threshold = inputs.REFERENCE["x0"] + k * math.sqrt(t) * h
        r = inputs.REFERENCE
        return oracles.heston_tail(t, self.threshold, r["kappa"], r["theta"],
                                   r["xi"], r["rho"], r["y0"], r["x0"])

    def run_config(self, config, model=None):
        return mdpvol.mc.estimate_smalltime_tail(
            model or self.model, self.spec["t"], self.spec["k"], inputs.BETA, config)


class RvLongtime(_TailWorkload):
    name = "rv_longtime"
    spec = inputs.RV

    def exact(self) -> float:
        t, x = self.spec["t"], self.spec["x"]
        r = inputs.REFERENCE
        self.speed = t ** (2 * inputs.BETA)
        self.target = -r["kappa"] ** 2 * x ** 2 / (2 * r["xi"] ** 2 * r["theta"])
        self.threshold = x * t ** (inputs.BETA + 0.5) + r["theta"] * t
        return oracles.cir_integral_tail(t, self.threshold, r["kappa"], r["theta"],
                                         r["xi"], r["y0"])

    def run_config(self, config, model=None):
        return mdpvol.mc.estimate_rv_tail(
            model or self.model, self.spec["t"], self.spec["x"], inputs.BETA, config)


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_tol


class ClosedFormSweep:
    """One operation: a seeded Heston parameter set through every runner."""

    name = "closed_form_sweep"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.model, self.base_config = inputs.build(self.name, seed)
        self.workdir = tempfile.mkdtemp(prefix="sweep-", dir=workdir)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, i: int, model=None, outdir: str | None = None):
        outdir = outdir or self.workdir
        files = {}
        for doc in inputs.sweep_docs(self.seed, i):
            config = mdpvol.config.validate_config(doc)
            paths = mdpvol.reporting.RUNNERS[config.experiment](config, outdir)
            files[doc["out_prefix"]] = paths
        return files

    def check(self, i: int, files) -> list[str]:
        m = inputs.sweep_model(self.seed, i)
        kappa, theta, xi, rho, y0 = (m[k] for k in ("kappa", "theta", "xi", "rho", "y0"))
        bad = []

        def expect(ok: bool, what: str) -> None:
            if not ok:
                bad.append(f"op {i} {m}: {what}")

        docs = inputs.sweep_docs(self.seed, i)
        out = {}
        for doc in docs:
            paths = files[doc["out_prefix"]]
            key = (doc["experiment"], doc["params"].get("q_g"))
            out[key] = paths
            for path in paths:
                if path.endswith(".csv"):
                    for row in _read_csv(path):
                        for cell, value in row.items():
                            try:
                                number = float(value)
                            except ValueError:
                                continue
                            expect(math.isfinite(number),
                                   f"{os.path.basename(path)} {cell} = {value}")

        shape, rate, mean, var = oracles.gamma_moments(kappa, theta, xi)
        row = _read_csv(out[("invariant", 0.5)][0])[0]
        expect(row["kind"] == "gamma", f"q_g=1/2 measure kind {row['kind']}")
        for cell, want in (("shape", shape), ("rate", rate), ("mean", mean),
                           ("variance", var)):
            expect(_close(float(row[cell]), want, 1e-7), f"gamma {cell} {row[cell]} vs {want!r}")
        row = _read_csv(out[("invariant", 0.75)][0])[0]
        expect(_close(float(row["mean"]), theta, 1e-7),
               f"q_g=3/4 stationary mean {row['mean']} vs theta {theta!r}")

        # H(y) = y is solved by u = -y / kappa at every q_g; checked where the
        # measure has its mass, [theta/2, 2 theta], since the solver's
        # relative accuracy decays into the tails
        for q_g in (0.5, 0.75):
            rows = _read_csv(out[("poisson", q_g)][0])
            central = [float(r["u_prime"]) for r in rows
                       if 0.5 * theta <= float(r["y"]) <= 2 * theta]
            expect(len(central) > 10, f"poisson q_g={q_g}: {len(central)} central rows")
            worst = max((abs(u * kappa + 1) for u in central), default=math.inf)
            expect(worst <= 1e-8, f"poisson q_g={q_g}: max |kappa u' + 1| = {worst:.3e}")

        q = oracles.large_time_q(kappa, theta, xi, rho)
        q_share = oracles.share_large_time_q(kappa, theta, xi, rho)
        for row in _read_csv(out[("rate", None)][0]):
            x = float(row["x"])
            expect(_close(float(row["q"]), q, 1e-8), f"rate q {row['q']} vs {q!r}")
            expect(_close(float(row["q_Q"]), q_share, 1e-8),
                   f"rate q_Q {row['q_Q']} vs {q_share!r}")
            expect(_close(float(row["J"]), x * x / (2 * q), 1e-8), f"rate J at x={x}")
            expect(_close(float(row["J_Q"]), x * x / (2 * q_share), 1e-8),
                   f"rate J_Q at x={x}")
            expect(float(row["alpha"]) == 0.0, f"rate alpha {row['alpha']} at zeta_c = 0")

        rows = _read_csv(out[("ldp", None)][0])
        xs = [float(r["x"]) for r in rows]
        lam = [float(r["lambda_star"]) for r in rows]
        center = -theta / 2
        mid = min(range(len(xs)), key=lambda j: abs(xs[j] - center))
        step = xs[mid + 1] - xs[mid]
        curv = (-lam[mid - 2] + 16 * lam[mid - 1] - 30 * lam[mid]
                + 16 * lam[mid + 1] - lam[mid + 2]) / (12 * step ** 2)
        expect(_close(curv, 1 / q, 1e-5), f"ldp curvature at -theta/2 {curv!r} vs 1/q {1 / q!r}")
        expect(abs(lam[mid]) <= 1e-9, f"ldp lambda_star(-theta/2) = {lam[mid]!r}")
        shift = min(lam)
        for r, x in zip(rows, xs):
            want = (x - center) ** 2 / (2 * q) + shift
            expect(_close(float(r["mdp_quadratic"]), want, 1e-8, 1e-15),
                   f"ldp mdp_quadratic at x={x}")

        compare_csv, compare_json = out[("compare", None)]
        with open(compare_csv, "rb") as a, open(out[("ldp", None)][0], "rb") as b:
            expect(a.read().split(b"\n", 1)[1] == b.read().split(b"\n", 1)[1],
                   "compare.csv rows differ from ldp.csv rows")
        with open(compare_json, encoding="utf-8") as handle:
            summary = json.load(handle)
        expect(summary["passing_variant"] == "standard",
               f"compare passing_variant {summary['passing_variant']}")
        expect(summary["curvature_identity_residual"]["standard"] <= 1e-6,
               f"compare standard residual {summary['curvature_identity_residual']}")
        expect(_close(summary["q"], q, 1e-8), f"compare q {summary['q']!r} vs {q!r}")

        quotes = {r["regime"]: float(r["exponent"])
                  for r in _read_csv(out[("asymptotics", None)][0])}
        k, x, x_rv, t, beta = 0.2, 0.1, 0.05, 100.0, inputs.BETA
        want = {
            "small_time_call": -k * k / (2 * y0),
            "large_time_put_leading": -x,
            "large_time_put_correction": -t ** (beta - 0.5) * x * x / (2 * q),
            "large_time_call": -x * x / (2 * q_share),
            "rv_option_ldp": x_rv - oracles.rv_rate(kappa, theta, xi, x_rv),
            "rv_option_mdp": -kappa ** 2 * x_rv ** 2 / (2 * xi ** 2 * theta),
            "tail_probability": -(x + 0.2) ** 2 / (2 * y0 * t),
        }
        expect(set(quotes) == set(want), f"asymptotics regimes {sorted(quotes)}")
        for regime, value in want.items():
            got = quotes.get(regime, math.nan)
            expect(_close(got, value, 1e-7, 1e-12),
                   f"asymptotics {regime} {got!r} vs {value!r}")
        return bad

    def determinism(self) -> list[str]:
        """The same parameter set twice must write bitwise-identical files."""
        contents = []
        for attempt in range(2):
            outdir = os.path.join(self.workdir, f"det-{attempt}")
            files = self.run(0, outdir=outdir)
            blobs = {}
            for paths in files.values():
                for path in paths:
                    with open(path, "rb") as handle:
                        blobs[os.path.basename(path)] = handle.read()
            contents.append(blobs)
        if contents[0] != contents[1]:
            return ["sweep outputs differ between two runs of one parameter set"]
        return []

    def self_test(self) -> list[str]:
        failures = []
        # the Legendre-transform oracle against the closed form
        # kappa^2 (x - theta)^2 / (2 xi^2 x)
        for x in (0.02, 0.05, 0.3):
            want = 4.0 * (x - 0.1) ** 2 / (2 * 0.25 * x)
            got = oracles.rv_rate(2.0, 0.1, 0.5, x)
            if not _close(got, want, 1e-9, 1e-12):
                failures.append(f"rv_rate({x}) = {got!r}, closed form {want!r}")
        return failures


def make(name: str, seed: int, workdir: str):
    if name == "smalltime_tail":
        return SmalltimeTail(seed)
    if name == "rv_longtime":
        return RvLongtime(seed)
    return ClosedFormSweep(seed, workdir)
