"""Workload inputs made from the seed, and the set-up a user pays per process.

This module imports only the standard library and mdpvol, so that the
set-up probe times what a command-line user of mdpvol pays, not the
benchmark's own oracles.
"""

from __future__ import annotations

import hashlib
import random

WORKLOADS = ("smalltime_tail", "rv_longtime", "closed_form_sweep")

# Heston reference model of the acceptance criteria.
REFERENCE = {"kappa": 2.0, "theta": 0.1, "xi": 0.5, "rho": -0.5,
             "x0": 0.0, "y0": 0.1}
BETA = 0.25

# smalltime_tail: the last point of criterion 8 (t = 0.01, k = 0.2, 100
# steps) on three full 2^17-path Philox chunks.
SMALLTIME = {"t": 0.01, "k": 0.2, "n_paths": 3 << 17, "n_steps": 100}
# rv_longtime: the first point of criterion 9 (t = 25, x = 0.05, step 0.05)
# on half of one chunk, so that a run holds about ten operations.
RV = {"t": 25.0, "x": 0.05, "n_paths": 1 << 16, "n_steps": 500}

# closed_form_sweep parameter region.  It keeps the Gamma shape
# 2 kappa theta / xi^2 within [0.125, 13.3], away from the Poisson-solver
# faults at shape above ~60 and at shape near 0.03, and uses the standard
# d(u) radicand, which is defined on the whole ldp grid.
SWEEP_REGION = {"kappa": (1.0, 3.0), "theta": (0.04, 0.2), "xi": (0.3, 0.8),
                "rho": (-0.8, 0.0), "y0_over_theta": (0.5, 2.0)}
# (experiment, params) of the six deterministic runners, in run order.
SWEEP_JOBS = (
    ("invariant", {"q_g": 0.5}),
    ("invariant", {"q_g": 0.75}),
    ("poisson", {"q_g": 0.5, "functional": "linear"}),
    ("poisson", {"q_g": 0.75, "functional": "linear"}),
    ("rate", {}),
    ("ldp", {"d_variant": "standard"}),
    ("compare", {"d_variant": "standard"}),
    ("asymptotics", {}),
)


def derived_seed(seed: int, label: str) -> int:
    """A 64-bit seed for one operation, from the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sweep_model(seed: int, index: int) -> dict:
    """The Heston parameter set of sweep operation ``index``."""
    rng = random.Random(derived_seed(seed, f"sweep-{index}"))
    m = {name: rng.uniform(*SWEEP_REGION[name])
         for name in ("kappa", "theta", "xi", "rho")}
    m["y0"] = m["theta"] * rng.uniform(*SWEEP_REGION["y0_over_theta"])
    m["x0"] = 0.0
    m["kind"] = "heston"
    return m


def sweep_docs(seed: int, index: int) -> list[dict]:
    """The configuration documents of sweep operation ``index``, one per job."""
    model = sweep_model(seed, index)
    rng = random.Random(derived_seed(seed, f"sweep-x-{index}"))
    x_values = [round(rng.uniform(-0.3, 0.3), 6) for _ in range(5)]
    docs = []
    for position, (experiment, params) in enumerate(SWEEP_JOBS):
        params = dict(params)
        if experiment == "rate":
            params["x_values"] = x_values
        docs.append({"experiment": experiment, "seed": seed, "model": model,
                     "params": params, "out_prefix": f"{position}-"})
    return docs


def build(workload: str, seed: int):
    """Import mdpvol and construct the workload's model and configuration."""
    import mdpvol

    if workload == "closed_form_sweep":
        from mdpvol import config

        doc = sweep_docs(seed, 0)[0]
        cfg = config.validate_config(doc)
        return config.build_model(cfg), cfg
    model = mdpvol.make_heston(**REFERENCE)
    spec = SMALLTIME if workload == "smalltime_tail" else RV
    sim = mdpvol.SimConfig(n_paths=spec["n_paths"], n_steps=spec["n_steps"],
                           t_end=spec["t"], seed=derived_seed(seed, "op-0"))
    return model, sim
