"""Command-line frontend.

    mdpvol <subcommand> [--config FILE] [--out DIR] [mc overrides]

Subcommands: invariant, poisson, rate, ldp, mc, asymptotics, compare,
acceptance.  Without --config the documented defaults run (the reference
parameter set).  Exit codes: 0 success, 1 configuration/validation or
output-path error, 2 numeric failure, 3 acceptance failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from .config import EXPERIMENTS, TARGET_KEYS, parse_config, validate_config
from .errors import (ConfigError, DomainError, GridMismatchError,
                     QuadratureError, SimulationOverflowError,
                     SingularSystemError, UnsupportedModelError)
from .families import MODELS

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_ACCEPTANCE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdpvol",
        description="Moderate/large-deviations asymptotics for two-factor "
                    "volatility models")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        if name == "mc":
            p.add_argument("--model", choices=tuple(MODELS))
            for key in (*TARGET_KEYS, "beta"):
                p.add_argument(f"--{key}", type=float)
            p.add_argument("--paths", type=int)
            p.add_argument("--steps", type=int)
            p.add_argument("--seed", type=int)
            p.add_argument("--antithetic", action="store_true", default=None)
        if name == "acceptance":
            p.add_argument("--seed", type=int)
            p.add_argument("--criterion", type=int, action="append",
                           help="run only the given criterion id (repeatable)")
    return parser


def _load_config(args) -> "ExperimentConfig":
    """The config file, or {}, with the flags set, validated as the subcommand."""
    doc = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                doc = parse_config(handle.read())
        except UnicodeDecodeError as exc:
            raise ConfigError([f"{args.config}: not UTF-8 text: {exc.reason} "
                               f"at byte {exc.start}"]) from None
    if not isinstance(doc, dict):  # validate_config names the top level
        return validate_config(doc)
    doc = {**doc, "experiment": args.experiment}
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if args.experiment == "mc":
        model = doc.get("model", {})
        if args.model is not None and isinstance(model, dict):
            # the file's values of the keys the new kind reads stay
            doc["model"] = {"kind": args.model, **{key: model[key] for key in
                                                   MODELS[args.model].defaults
                                                   if key in model}}
        # every params key of mc but target has a flag
        flags = {"regime": {"beta": args.beta},
                 "params": {key: vars(args).get(key) for key in EXPERIMENTS["mc"]["params"]}}
        for where, values in flags.items():
            block = doc.get(where, {})
            if isinstance(block, dict):  # validate_config names any other block
                doc[where] = {**block, **{key: value for key, value in values.items()
                                          if value is not None}}
    return validate_config(doc)


def _run_acceptance(config, outdir: str, only=None) -> int:
    import os

    from .acceptance import ALL_CRITERIA, run_all
    from .reporting import write_json

    unknown = sorted(set(only or ()) - set(range(1, len(ALL_CRITERIA) + 1)))
    if unknown:
        print(f"config error: --criterion: no criterion with id "
              f"{', '.join(map(str, unknown))} (ids are 1-{len(ALL_CRITERIA)})",
              file=sys.stderr)
        return EXIT_CONFIG
    t0 = time.monotonic()
    results, payload = run_all(config.seed, only=only)
    elapsed = time.monotonic() - t0
    path = os.path.join(outdir, f"{config.out_prefix or ''}acceptance.json")
    write_json(path, payload)
    for result in results:
        print(result.line())
        if result.notes:
            print(f"         note: {result.notes}")
    n = len(results)
    print(f"{payload['n_passed']}/{n} criteria passed in {elapsed:.1f} s")
    print(f"wrote {path}")
    return EXIT_OK if payload["all_passed"] else EXIT_ACCEPTANCE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.experiment == "acceptance":
            only = tuple(args.criterion) if getattr(args, "criterion", None) else None
            return _run_acceptance(config, args.out, only=only)
        from .reporting import RUNNERS

        written = RUNNERS[args.experiment](config, args.out)
        for path in written:
            print(f"wrote {path}")
        return EXIT_OK
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # --out or out_prefix names no writable directory
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, UnsupportedModelError, GridMismatchError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError:
        print(f"validation error: {args.experiment}: an input is so large that a "
              "float overflows", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, SingularSystemError, SimulationOverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
