import argparse
import ast
import pathlib

import numpy as np
import pytest

import mdpvol
from mdpvol import ConfigError, UnsupportedModelError, family
from mdpvol.cli import _build_parser
from mdpvol.config import validate_config
from mdpvol.families import MODELS
from mdpvol.models import GrowthExponents, ModelSpec


def _custom():
    """A model built from a bare kernel, whose kind no table entry names."""
    def kernel(y, out):
        np.exp(y, out=out[0])
        np.negative(y, out=out[1])
        out[2].fill(1.0)

    return ModelSpec(coeffs_fused=kernel, rho=0.0, x0=0.0, y0=0.2, kind="custom",
                     growth=GrowthExponents(q_sigma=0.5, q_g=0.0))


def _build(kind):
    if kind == "custom":
        return _custom()
    entry = MODELS[kind]
    return entry.preset(**entry.defaults)


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
@pytest.mark.parametrize("kind", [*MODELS, "custom"])
def test_fact_or_refusal_naming_kind(kind, fact):
    method = getattr(family(_build(kind)), fact)
    check = FACTS.get((kind, fact))
    if check is None:
        with pytest.raises(UnsupportedModelError, match=f"'{kind}'"):
            method()
    else:
        assert check(method())


@pytest.mark.parametrize("kind", list(MODELS))
def test_registry_entry_builds_its_kind(kind):
    model = _build(kind)
    assert model.kind == kind
    assert type(family(model)) is MODELS[kind]


def test_registry_is_the_only_list_of_kinds():
    for kind in MODELS:
        assert validate_config({"model": {"kind": kind}}).model["kind"] == kind
    for kind in ("custom", "lsv", "Heston"):
        with pytest.raises(ConfigError, match="unknown kind"):
            validate_config({"model": {"kind": kind}})
    commands = next(action for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    model_flag = next(action for action in commands.choices["mc"]._actions
                      if action.dest == "model")
    assert tuple(model_flag.choices) == tuple(MODELS)


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
