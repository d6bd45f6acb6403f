import ast
import pathlib

import numpy as np
import pytest

import mdpvol
from mdpvol import (UnsupportedModelError, family, make_constant_sigma,
                    make_heston, make_lsv, make_power_family, make_stein_stein)
from mdpvol.models import GrowthExponents

MODELS = {
    "heston": lambda: make_heston(2, 0.1, 0.5, -0.5, 0.0, 0.1),
    "stein_stein": lambda: make_stein_stein(0.1, -1.0, 0.3, -0.5, 0.0, 0.2),
    "power": lambda: make_power_family(0.2, -2.0, 0.5, 1.0, 0.5, 0.5, -0.5, 0.0, 0.1),
    "constant_sigma": lambda: make_constant_sigma(0.2, 0.0),
    "lsv": lambda: make_lsv(lambda x: 1.0 + 0 * np.asarray(x),
                            lambda y: np.exp(np.asarray(y)),
                            lambda x, y: -np.asarray(y),
                            lambda x, y: np.ones_like(np.asarray(y, dtype=float)),
                            0.0, 0.0, 0.2, GrowthExponents(q_sigma=0.5, q_g=0.0)),
}

# a check on each fact a family has; every other (kind, fact) pair is refused
FACTS = {
    ("heston", "square_root_factor"): lambda v: v == (2, 0.1, 0.5),
    ("heston", "invariant"): lambda v: (v.kind, v.shape) == ("gamma", 0.4 / 0.25),
    ("heston", "share_measure"):
        lambda v: (v.kind, v.params["kappa"], v.x_drift_coeff) == ("heston", 2.25, 0.5),
    ("stein_stein", "share_measure"):
        lambda v: (v.kind, v.x_drift_coeff) == ("stein_stein", 0.5)
        and v.params["b"] == pytest.approx(-1.15, abs=1e-15),
    # the speed measure, even where nu_g = 1/2 would allow the Gamma law
    ("power", "invariant"): lambda v: (v.kind, v.params["q_g"]) == ("speed", 0.5),
}


@pytest.mark.parametrize("fact", ["square_root_factor", "invariant", "share_measure"])
@pytest.mark.parametrize("kind", list(MODELS))
def test_fact_or_refusal_naming_kind(kind, fact):
    method = getattr(family(MODELS[kind]()), fact)
    check = FACTS.get((kind, fact))
    if check is None:
        with pytest.raises(UnsupportedModelError, match=f"'{kind}'"):
            method()
    else:
        assert check(method())


def test_only_families_compares_kind():
    # family facts live in families.py; any other module that compares a
    # .kind has grown a second dispatch on the model family
    offenders = []
    for path in sorted(pathlib.Path(mdpvol.__file__).parent.glob("*.py")):
        if path.name == "families.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare) or not any(
                    isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                    for op in node.ops):
                continue
            if any(isinstance(operand, ast.Attribute) and operand.attr == "kind"
                   for operand in (node.left, *node.comparators)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
