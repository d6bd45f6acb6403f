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
      "regime": {"beta": 0.25},        # the keys the experiment reads
      "params": { ... experiment-specific keys ... }
    }

Every key is optional; omitted blocks fall back to the documented defaults
(the reference parameter set).  Each model kind reads only its own keys,
listed with their defaults in the kind's entry of ``families.MODELS``:
heston (kappa, theta, xi, rho, x0, y0), stein_stein (a, b, c, rho, x0, y0),
power (a, b, c_g, c_sigma, nu_g, nu_sigma, rho, x0, y0) and constant_sigma
(c_sigma, x0).  Each experiment accepts only the regime and params keys its
runner reads, listed in its entry of ``EXPERIMENTS``; the runners hold their
defaults; each ``mc`` target reads its keys of ``mc.TARGETS`` only.  Unknown
keys, a key of another kind, experiment or target included, are rejected, a
typo with a closest-match suggestion, and validation reports every
violation, not just the first.  The CLI sets the subcommand and its
flags on the decoded document and validates it once, as that experiment.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import (BETA_BOUNDS, CORRELATION, POSITIVE, ConfigError, DomainError,
                     bound_violation)
from .families import MODELS
from .ldp import D_VARIANTS
from .mc import DEFAULT_TARGET, TARGETS
from .models import ModelSpec

TARGET_KEYS = tuple(dict.fromkeys(key for entry in TARGETS.values() for key in entry.bounds))
# the regime and params keys each experiment's runner reads
_LDP_KEYS = {"regime": (), "params": ("x_min", "x_max", "n_points", "d_variant")}
EXPERIMENTS: Mapping[str, Mapping[str, tuple]] = {
    "invariant": {"regime": (), "params": ("q_g",)},
    "poisson": {"regime": (), "params": ("q_g", "functional")},
    "rate": {"regime": ("zeta_c",), "params": ("x", "x_values")},
    "ldp": _LDP_KEYS,
    "mc": {"regime": ("beta",),
           "params": ("target", *TARGET_KEYS, "paths", "steps", "antithetic")},
    "asymptotics": {"regime": ("beta",), "params": ("k", "x", "t")},
    "compare": _LDP_KEYS,
    "acceptance": {"regime": (), "params": ()},
}

# bounds of a model key wherever its kind reads it; the presets check the rest
_MODEL_BOUNDS = {"kappa": POSITIVE, "theta": POSITIVE, "rho": CORRELATION}
_PARAM_BOUNDS = {"t": POSITIVE, "k": POSITIVE}  # asymptotics'; each mc target has its own
# h(eps) = eps^{-beta}, and eps/delta = 1 + zeta_c sqrt(eps) h(eps): every
# runner computes at the limit constant 1 of eps/delta
DEFAULT_REGIME: Mapping[str, Any] = {"beta": 0.25, "zeta_c": 0.0}
DEFAULT_SEED = 20260501

_TOP_KEYS = ("experiment", "seed", "model", "regime", "params", "out_prefix")
# the values a string-valued params key may take
_PARAM_CHOICES: Mapping[str, tuple] = {
    "target": tuple(TARGETS),
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
                whose: str = "", elsewhere=()) -> None:
    for key in block:
        if key not in allowed:
            # a key read elsewhere is no typo of one read here
            hint = "" if key in elsewhere else _suggest(key, allowed)
            violations.append(f"{where}: unknown key '{key}'{whose}{hint}")


def _check_number(block: Mapping, key: str, where: str, violations: list,
                  integer: bool = False, **bounds) -> None:
    if key not in block:
        return
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        violations.append(f"{where}.{key}: expected {'an integer' if integer else 'a number'}"
                          f", got {value!r}")
    # an int is finite however large, and math.isfinite cannot convert a huge one
    elif isinstance(value, float) and not math.isfinite(value):
        violations.append(f"{where}.{key}: must be finite, got {value!r}")
    else:
        try:
            bound_violation(f"{where}.{key}", value, **bounds)
        except DomainError as exc:
            violations.append(str(exc))


def _target_bounds(params: dict, violations: list) -> Mapping:
    """The mc target's bounds; names (and drops) another target's keys, and missing keys."""
    name = params.get("target", DEFAULT_TARGET)
    target = TARGETS.get(name) if isinstance(name, str) else None
    if target is None:
        return _PARAM_BOUNDS
    for key in [key for key in params if key in TARGET_KEYS and key not in target.bounds]:
        violations.append(f"params: unknown key '{key}' for mc target '{name}'")
        del params[key]
    violations.extend(f"params.{key}: required for mc target '{name}', which has "
                      "no default for it" for key in target.bounds
                      if key not in params and key not in target.defaults)
    return target.bounds


def _check_params(params: Mapping, violations: list, bounds: Mapping) -> None:
    for key, lo in (("paths", 1), ("steps", 1), ("n_points", 3)):
        _check_number(params, key, "params", violations, integer=True, lo=lo)
    for key in ("t", "k", "x"):
        _check_number(params, key, "params", violations, **bounds.get(key, {}))
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
            items = {f"x_values[{index}]": value for index, value in enumerate(values)}
            for key in items:
                _check_number(items, key, "params", violations)
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
    # an unhashable experiment, such as a list, is unknown too
    reads = EXPERIMENTS.get(experiment) if isinstance(experiment, str) else None
    if reads is None:
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

    # an experiment's keys fill a copy of the block's defaults; the values
    # of another experiment's keys are not checked, since the key is rejected
    blocks = {"regime": dict(DEFAULT_REGIME), "params": {}}
    for where, values in blocks.items():
        block = raw.get(where, {})
        if not isinstance(block, Mapping):
            violations.append(f"{where}: expected an object")
        elif reads is not None:
            _check_keys(block, reads[where], where, violations,
                        f" for experiment '{experiment}'",
                        {key for entry in EXPERIMENTS.values() for key in entry[where]})
            values.update((key, block[key]) for key in block if key in reads[where])
    regime, params = blocks["regime"], blocks["params"]
    _check_number(regime, "beta", "regime", violations, **BETA_BOUNDS)
    _check_number(regime, "zeta_c", "regime", violations)
    _check_params(params, violations, _target_bounds(params, violations)
                  if experiment == "mc" else _PARAM_BOUNDS)

    out_prefix = raw.get("out_prefix")
    if out_prefix is not None and not isinstance(out_prefix, str):
        violations.append(f"out_prefix: expected a string, got {out_prefix!r}")
    elif out_prefix is not None and "\0" in out_prefix:
        violations.append("out_prefix: must not contain a NUL character")

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(experiment=experiment, seed=seed, model=model,
                            regime=regime, params=params,
                            out_prefix=out_prefix)


def parse_config(text: str) -> Any:
    """Decode a JSON configuration document; a parse error names its line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except RecursionError:
        raise ConfigError(["parse error: the document nests too deeply"]) from None


def build_model(config: ExperimentConfig) -> ModelSpec:
    """Construct the ModelSpec described by the config's model block."""
    entry = MODELS[config.model["kind"]]
    return entry.preset(*(config.model[key] for key in entry.defaults))


def subseed(seed: int, label: str) -> int:
    """Deterministic sub-seed derived from the top-level seed by labeled hashing."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
