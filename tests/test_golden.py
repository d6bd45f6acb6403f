"""Golden outputs of the runners and bitwise pins of the oracles.

The files under ``tests/golden/<case>/`` are what each runner writes for the
case's config (the ``mc`` cases on small seeded batches); the test reruns the
runner into a temporary directory and compares the bytes.  The scalar pins
record the Gaussian and saddlepoint oracles and the truncations of the Gamma
and speed invariant measures with ``float.hex``, so any change in their float
operations shows as a failure.
"""

import os
from types import SimpleNamespace

import pytest

from mdpvol import (exact_gaussian_call, exact_gaussian_tail, gamma_invariant,
                    speed_measure)
from mdpvol import acceptance
from mdpvol.config import DEFAULT_SEED, validate_config
from mdpvol.reporting import RUNNERS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = {
    "invariant": ("invariant", {}),
    "invariant_qg075": ("invariant", {"q_g": 0.75}),
    "poisson": ("poisson", {}),
    "poisson_qg075": ("poisson", {"q_g": 0.75}),
    "rate": ("rate", {}),
    "ldp": ("ldp", {}),
    "compare": ("compare", {}),
    "asymptotics": ("asymptotics", {}),
    "mc_smalltime_tail": ("mc", {"target": "smalltime_tail", "paths": 20000,
                                 "steps": 50}),
    "mc_rv_tail": ("mc", {"target": "rv_tail", "t": 1.0, "paths": 20000,
                          "steps": 50}),
    "mc_call": ("mc", {"target": "call", "paths": 20000, "steps": 50,
                       "antithetic": True}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_runner_output_matches_golden(tmp_path, case):
    experiment, params = CASES[case]
    config = validate_config({"experiment": experiment, "params": params})
    written = RUNNERS[experiment](config, str(tmp_path))
    expected = sorted(os.listdir(os.path.join(GOLDEN, case)))
    assert sorted(os.path.basename(p) for p in written) == expected
    for name in expected:
        with open(os.path.join(GOLDEN, case, name), "rb") as handle:
            golden = handle.read()
        with open(tmp_path / name, "rb") as handle:
            assert handle.read() == golden, f"{case}/{name} differs"


@pytest.mark.parametrize("args, pin", [
    ((0.2, 0.01, 0.05), "0x1.8b9ca38928ad7p-8"),
    ((0.3162, 0.01, 0.2), "0x1.f63f932e4389bp-34"),
    ((0.5, 1.0, 0.1, 0.02), "0x1.5d15ab4dd8578p-2"),
    ((0.25, 0.5, -0.3), "0x1.e46e7ed927f2ep-1"),
])
def test_exact_gaussian_tail_pins(args, pin):
    assert exact_gaussian_tail(*args).hex() == pin


@pytest.mark.parametrize("args, pin", [
    ((0.2, 0.01, 0.05), "0x1.58bc6a5e45d00p-15"),
    ((0.3, 1.0, 0.0), "0x1.e8635cdfc8220p-4"),
    ((0.5, 0.25, -0.1, 0.02), "0x1.503e0606ab788p-3"),
])
def test_exact_gaussian_call_pins(args, pin):
    assert exact_gaussian_call(*args).hex() == pin


def test_criterion_08_gaussian_proxy_pin(monkeypatch):
    # the Monte Carlo estimates are stubbed out; the oracle at t = 0.01 does
    # not depend on them
    monkeypatch.setattr(acceptance, "estimate_smalltime_tail",
                        lambda *args: SimpleNamespace(p_hat=0.5))
    details = acceptance.criterion_08_smalltime_trend(DEFAULT_SEED).details
    assert details["gaussian_oracle_final"].hex() == "-0x1.874079ba51c52p-2"


@pytest.mark.parametrize("t, pin", [
    (25.0, "0x1.575d1018f15f1p-4"),
    (50.0, "0x1.b5d207e7b1794p-5"),
    (100.0, "0x1.cff0f0726a486p-6"),
])
def test_rv_saddlepoint_tail_pins(t, pin):
    m = acceptance.REFERENCE
    c = 0.05 * t ** (0.25 + 0.5) + m["theta"] * t  # criterion 9's threshold
    value = acceptance._rv_mgf_saddle_tail(m["kappa"], m["theta"], m["xi"],
                                           m["y0"], c, t)
    assert value.hex() == pin


# (kappa, theta, xi) at Gamma shapes 2 kappa theta / xi^2 = 0.03, 1, 13.3, 100
# -> y_lo, y_hi, mass_below, mass_above
GAMMA_PINS = {
    (0.015, 0.01, 0.1): ("0x1.8f2b061aea072p-964", "0x1.c2f44503b9ffep+2",
                         "0x1.2027d510b6b4bp-29", "0x1.1977ffffffffep-40"),
    (2.0, 0.0625, 0.5): ("0x1.c25c26849780ep-48", "0x1.ba18c0cb51d2ap+0",
                         "0x1.c25c268497682p-44", "0x1.1978000000000p-40"),
    (1.33, 0.05, 0.1): ("0x1.ad7f29abcaf48p-25", "0x1.b56292e5f7155p-3",
                        "0x1.dc8e46f3842d3p-250", "0x1.1978000000000p-40"),
    (2.0, 0.25, 0.1): ("0x1.0c6f7a0b5ed8dp-22", "0x1.df5ad9b51c8f2p-2",
                       "0x0.0p+0", "0x1.1978000000028p-40"),
}


@pytest.mark.parametrize("construct", [
    gamma_invariant,
    lambda kappa, theta, xi: speed_measure(kappa, theta, xi, 0.5),
], ids=["gamma_invariant", "speed_measure_qg_half"])
@pytest.mark.parametrize("params", sorted(GAMMA_PINS))
def test_gamma_truncation_pins(construct, params):
    measure = construct(*params)
    got = tuple(float(v).hex() for v in (measure.y_lo, measure.y_hi,
                                         measure.mass_below, measure.mass_above))
    assert got == GAMMA_PINS[params]


# speed_measure away from q_g = 1/2, at the (kappa, theta, xi) of the five
# sets of test_digests.py: (kappa, theta, xi, q_g)
# -> y_lo, y_hi, mass_below, mass_above
SPEED_PINS = {
    (1.0, 0.04, 0.8, 0.6): ("0x1.47ae147ae147bp-34", "0x1.1160000000000p+4",
                            "0x1.f06f20bf95fa9p-95", "0x1.7be359bc74ab5p-63"),
    (1.5, 0.06, 0.6, 0.6): ("0x1.eb851eb851eb8p-24", "0x1.4400000000000p+2",
                            "0x1.6cc6b635d6f79p-82", "0x1.6987769b338fap-58"),
    (2.4, 0.1, 0.5, 0.6): ("0x1.999999999999ap-15", "0x1.2000000000000p+1",
                           "0x1.7112f20817163p-76", "0x1.b62bf88001d30p-58"),
    (2.5, 0.15, 0.4, 0.6): ("0x1.3333333333333p-10", "0x1.2000000000000p+1",
                            "0x1.661fcb2482419p-72", "0x1.8d123442eaa83p-82"),
    (3.0, 0.2, 0.3, 0.6): ("0x1.999999999999ap-7", "0x1.0000000000000p+0",
                           "0x1.ea910a7a602dfp-73", "0x1.015b1532b44fcp-56"),
    (1.0, 0.04, 0.8, 0.75): ("0x1.47ae147ae147bp-16", "0x1.9a10000000000p+4",
                             "0x1.d239e592834dap-80", "0x1.33b07f3852db0p-53"),
    (1.5, 0.06, 0.6, 0.75): ("0x1.eb851eb851eb8p-13", "0x1.4400000000000p+2",
                             "0x1.4550c7f66b31cp-85", "0x1.8f0a05adea42ep-52"),
    (2.4, 0.1, 0.5, 0.75): ("0x1.999999999999ap-9", "0x1.2000000000000p+1",
                            "0x1.3bceffc7121e5p-70", "0x1.112f37264e8cdp-59"),
    (2.5, 0.15, 0.4, 0.75): ("0x1.3333333333333p-7", "0x1.8000000000000p+0",
                             "0x1.593c770bacd06p-82", "0x1.001c65d0c8d60p-58"),
    (3.0, 0.2, 0.3, 0.75): ("0x1.999999999999ap-6", "0x1.0000000000000p+0",
                            "0x1.b23c04dcb2ae8p-106", "0x1.520573676a5bcp-65"),
    (1.0, 0.04, 0.8, 0.95): ("0x1.47ae147ae147bp-10", "0x1.59fd800000000p+6",
                             "0x1.222dfd7d281c3p-71", "0x1.47c7ae2cbad7fp-48"),
    (1.5, 0.06, 0.6, 0.95): ("0x1.eb851eb851eb8p-9", "0x1.4400000000000p+2",
                             "0x1.32121fa6cd957p-93", "0x1.e8a05b447358dp-51"),
    (2.4, 0.1, 0.5, 0.95): ("0x1.999999999999ap-7", "0x1.8000000000000p+0",
                            "0x1.c4a9d025afcd6p-97", "0x1.8c9291530abf5p-54"),
    (2.5, 0.15, 0.4, 0.95): ("0x1.3333333333333p-6", "0x1.8000000000000p+0",
                             "0x1.a87d6af8fa981p-162", "0x1.a5f21d6722f62p-68"),
    (3.0, 0.2, 0.3, 0.95): ("0x1.999999999999ap-5", "0x1.0000000000000p+0",
                            "0x1.4817eb33cb609p-124", "0x1.429f680e7f032p-80"),
}


@pytest.mark.parametrize("params", sorted(SPEED_PINS))
def test_speed_truncation_pins(params):
    measure = speed_measure(*params)
    got = tuple(float(v).hex() for v in (measure.y_lo, measure.y_hi,
                                         measure.mass_below, measure.mass_above))
    assert got == SPEED_PINS[params]
