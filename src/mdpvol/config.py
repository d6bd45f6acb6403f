"""Experiment configuration: JSON schema, parsing, validation, sub-seeds.

The configuration document is a single JSON object (one widely-supported
human-readable format, no autodetection, so experiment reruns are bit-exact):

    {
      "experiment": "mc",              # invariant | poisson | rate | ldp |
                                       # mc | asymptotics | compare | acceptance
      "seed": 20260501,                # one top-level seed; subcommands derive
                                       # sub-seeds by labeled hashing
      "model":  {"kind": "heston", "kappa": 2.0, "theta": 0.1, "xi": 0.5,
                 "rho": -0.5, "x0": 0.0, "y0": 0.1},
      "regime": {"beta": 0.25, "zeta_c": 0.0},
      "params": { ... experiment-specific keys ... }
    }

Every key is optional; omitted blocks fall back to the documented defaults
(the reference parameter set).  Each model kind reads only its own keys,
listed with their defaults in the kind's entry of ``families.MODELS``:
heston (kappa, theta, xi, rho, x0, y0), stein_stein (a, b, c, rho, x0, y0),
power (a, b, c_g, c_sigma, nu_g, nu_sigma, rho, x0, y0) and constant_sigma
(c_sigma, x0).  Unknown keys, a model key of another kind included, are
rejected with a closest-match suggestion, and validation reports every
violation, not just the first.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import ConfigError
from .families import MODELS
from .ldp import D_VARIANTS
from .models import ModelSpec

EXPERIMENTS = ("invariant", "poisson", "rate", "ldp", "mc", "asymptotics",
               "compare", "acceptance")

# bounds of a model key wherever its kind reads it; the presets check the rest
_POSITIVE = {"lo": 0, "lo_strict": True}
_MODEL_BOUNDS = {"kappa": _POSITIVE, "theta": _POSITIVE, "rho": {"lo": -1, "hi": 1}}
# h(eps) = eps^{-beta}, and eps/delta = 1 + zeta_c sqrt(eps) h(eps): every
# runner computes at the limit constant 1 of eps/delta
DEFAULT_REGIME: Mapping[str, Any] = {"beta": 0.25, "zeta_c": 0.0}
DEFAULT_SEED = 20260501

_REGIME_KEYS = ("beta", "zeta_c")
_TOP_KEYS = ("experiment", "seed", "model", "regime", "params", "out_prefix")

_PARAM_KEYS = (
    "target", "t", "k", "x", "x_values", "paths", "steps", "antithetic",
    "x_min", "x_max", "n_points", "d_variant", "functional", "q_g",
)
# the values a string-valued params key may take
_PARAM_CHOICES: Mapping[str, tuple] = {
    "target": ("smalltime_tail", "rv_tail", "call"),
    "functional": ("linear", "half_centered_variance"),
    "d_variant": D_VARIANTS,
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    model: Mapping[str, Any]
    regime: Mapping[str, Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    out_prefix: str | None = None


def _suggest(key: str, allowed) -> str:
    close = difflib.get_close_matches(key, allowed, n=1)
    return f" (did you mean '{close[0]}'?)" if close else ""


def _check_keys(block: Mapping, allowed, where: str, violations: list,
                whose: str = "") -> None:
    for key in block:
        if key not in allowed:
            violations.append(f"{where}: unknown key '{key}'{whose}{_suggest(key, allowed)}")


def _check_number(block: Mapping, key: str, where: str, violations: list,
                  lo=None, hi=None, lo_strict=False, hi_strict=False) -> None:
    if key not in block:
        return
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        violations.append(f"{where}.{key}: expected a number, got {value!r}")
        return
    if not math.isfinite(value):
        violations.append(f"{where}.{key}: must be finite, got {value!r}")
        return
    if lo is not None and (value <= lo if lo_strict else value < lo):
        op = ">" if lo_strict else ">="
        violations.append(f"{where}.{key}: must be {op} {lo}, got {value}")
    if hi is not None and (value >= hi if hi_strict else value > hi):
        op = "<" if hi_strict else "<="
        violations.append(f"{where}.{key}: must be {op} {hi}, got {value}")


def _check_integer(block: Mapping, key: str, where: str, violations: list,
                   lo: int) -> None:
    if key not in block:
        return
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        violations.append(f"{where}.{key}: expected an integer, got {value!r}")
    elif value < lo:
        violations.append(f"{where}.{key}: must be >= {lo}, got {value}")


def _check_params(params: Mapping, violations: list) -> None:
    _check_integer(params, "paths", "params", violations, lo=1)
    _check_integer(params, "steps", "params", violations, lo=1)
    _check_integer(params, "n_points", "params", violations, lo=3)
    _check_number(params, "t", "params", violations, lo=0, lo_strict=True)
    _check_number(params, "k", "params", violations, lo=0)
    _check_number(params, "x", "params", violations)
    _check_number(params, "x_min", "params", violations)
    _check_number(params, "x_max", "params", violations)
    _check_number(params, "q_g", "params", violations, lo=0.5, hi=1, hi_strict=True)
    for key, allowed in _PARAM_CHOICES.items():
        if key in params and params[key] not in allowed:
            violations.append(f"params.{key}: expected one of {', '.join(allowed)}, "
                              f"got {params[key]!r}{_suggest(str(params[key]), allowed)}")
    if "x_values" in params:
        values = params["x_values"]
        if not isinstance(values, list) or not values:
            violations.append(
                f"params.x_values: expected a nonempty list of numbers, got {values!r}")
        else:
            for index, value in enumerate(values):
                if (isinstance(value, bool) or not isinstance(value, (int, float))
                        or not math.isfinite(value)):
                    violations.append(f"params.x_values[{index}]: expected a finite "
                                      f"number, got {value!r}")
    if "x" in params and "x_values" in params:
        violations.append("params.x: give x or x_values, not both")
    antithetic = params.get("antithetic", False)
    if not isinstance(antithetic, bool):
        violations.append(f"params.antithetic: expected true or false, got {antithetic!r}")


def validate_config(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Validate a decoded document, collecting every violation."""
    violations: list[str] = []
    if not isinstance(raw, Mapping):
        raise ConfigError(["top level: expected a JSON object"])
    _check_keys(raw, _TOP_KEYS, "top level", violations)

    experiment = raw.get("experiment", "acceptance")
    if experiment not in EXPERIMENTS:
        violations.append(
            f"experiment: unknown experiment '{experiment}'"
            f"{_suggest(str(experiment), EXPERIMENTS)}")

    seed = raw.get("seed", DEFAULT_SEED)
    if isinstance(seed, bool) or not isinstance(seed, int):
        violations.append(f"seed: expected an integer, got {seed!r}")
        seed = DEFAULT_SEED

    raw_model = raw.get("model", {})
    if not isinstance(raw_model, Mapping):
        violations.append("model: expected an object")
        raw_model = {}
    kind = raw_model.get("kind", "heston")
    # an unhashable kind, such as a list, is unknown too
    if not isinstance(kind, str) or kind not in MODELS:
        violations.append(f"model.kind: unknown kind '{kind}'"
                          f"{_suggest(str(kind), MODELS)}")
    else:
        defaults = MODELS[kind].defaults
        _check_keys(raw_model, ("kind", *defaults), "model", violations,
                    f" for kind '{kind}'")
        model = {"kind": kind, **{key: raw_model.get(key, value)
                                  for key, value in defaults.items()}}
        for key in defaults:
            _check_number(model, key, "model", violations, **_MODEL_BOUNDS.get(key, {}))

    regime = dict(DEFAULT_REGIME)
    raw_regime = raw.get("regime", {})
    if not isinstance(raw_regime, Mapping):
        violations.append("regime: expected an object")
    else:
        _check_keys(raw_regime, _REGIME_KEYS, "regime", violations)
        regime.update({k: v for k, v in raw_regime.items() if k in _REGIME_KEYS})
        _check_number(regime, "beta", "regime", violations,
                      lo=0, hi=0.5, lo_strict=True, hi_strict=True)
        _check_number(regime, "zeta_c", "regime", violations)

    params = raw.get("params", {})
    if not isinstance(params, Mapping):
        violations.append("params: expected an object")
        params = {}
    else:
        _check_keys(params, _PARAM_KEYS, "params", violations)
        _check_params(params, violations)

    out_prefix = raw.get("out_prefix")
    if out_prefix is not None and not isinstance(out_prefix, str):
        violations.append(f"out_prefix: expected a string, got {out_prefix!r}")
    elif out_prefix is not None and "\0" in out_prefix:
        violations.append("out_prefix: must not contain a NUL character")

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(experiment=experiment, seed=seed, model=model,
                            regime=regime, params=dict(params),
                            out_prefix=out_prefix)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON configuration document.

    Parse errors carry line/column context; validation errors list every bad
    field.  The empty document "{}" yields the documented defaults.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except RecursionError:
        raise ConfigError(["parse error: the document nests too deeply"]) from None
    return validate_config(raw)


def config_document(config: ExperimentConfig) -> dict:
    """The config as a JSON document of fresh dicts; validate_config inverts it."""
    doc = {
        "experiment": config.experiment,
        "seed": config.seed,
        "model": dict(config.model),
        "regime": dict(config.regime),
        "params": dict(config.params),
    }
    if config.out_prefix is not None:
        doc["out_prefix"] = config.out_prefix
    return doc


def build_model(config: ExperimentConfig) -> ModelSpec:
    """Construct the ModelSpec described by the config's model block."""
    entry = MODELS[config.model["kind"]]
    return entry.preset(*(config.model[key] for key in entry.defaults))


def subseed(seed: int, label: str) -> int:
    """Deterministic sub-seed derived from the top-level seed by labeled hashing."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
