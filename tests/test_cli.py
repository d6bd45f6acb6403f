import csv
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import mdpvol
from mdpvol import ConfigError
from mdpvol.cli import main
from mdpvol.config import (_PARAM_CHOICES, DEFAULT_SEED, EXPERIMENTS, TARGET_KEYS,
                           build_model, parse_config, subseed, validate_config)
from mdpvol.families import MODELS
from mdpvol.mc import TARGETS
from mdpvol.reporting import CSV_HEADERS


def _validated(doc: dict):
    return validate_config(parse_config(json.dumps(doc)))


class TestParseConfig:
    def test_minimal_heston_mc(self):
        config = _validated({
            "experiment": "mc",
            "model": {"kind": "heston", "kappa": 2.0, "theta": 0.1, "xi": 0.5,
                      "rho": -0.5, "x0": 0.0, "y0": 0.1},
            "params": {"t": 0.01, "k": 0.2, "paths": 1000, "steps": 10},
        })
        assert config.experiment == "mc"
        assert build_model(config).kind == "heston"

    def test_empty_document_uses_defaults(self):
        config = validate_config(parse_config("{}"))
        assert config.seed == DEFAULT_SEED
        assert config.model["kappa"] == 2.0
        assert config.regime["beta"] == 0.25

    def test_beta_out_of_range(self):
        with pytest.raises(ConfigError) as info:
            _validated({"experiment": "mc", "regime": {"beta": 0.7}})
        assert any("beta" in v for v in info.value.violations)

    def test_unknown_key_suggestion(self):
        with pytest.raises(ConfigError) as info:
            _validated({"model": {"kapa": 2.0}})
        assert any("did you mean 'kappa'" in v for v in info.value.violations)

    def test_params_checks_collect_every_violation(self):
        violations = []
        for experiment, params in (
                ("mc", {"paths": 2.5, "steps": 0, "t": -1.0, "k": -0.1, "x": "z",
                        "antithetic": 1, "target": "call_price"}),
                ("rate", {"x_values": [0.1, "a"]}),
                ("ldp", {"n_points": 2, "x_min": None, "x_max": float("inf"),
                         "d_variant": "standrd"}),
                ("poisson", {"q_g": 1, "functional": "y"})):
            with pytest.raises(ConfigError) as info:
                _validated({"experiment": experiment, "params": params})
            assert len(info.value.violations) == len(params)
            violations += info.value.violations
        text = " | ".join(violations)
        for key in ("paths", "steps", "t", "k", "x", "x_values[1]", "antithetic",
                    "n_points", "x_min", "x_max", "q_g", "target", "functional",
                    "d_variant"):
            assert f"params.{key}:" in text
        assert "did you mean 'standard'" in text

    def test_all_violations_reported(self):
        with pytest.raises(ConfigError) as info:
            _validated({
                "experiment": "rate",
                "model": {"kappa": -1.0, "rho": 3.0},
                "regime": {"zeta_c": float("inf")},
                "params": {"x": "z"},
            })
        text = " | ".join(info.value.violations)
        assert "kappa" in text and "rho" in text and "params.x" in text
        assert "regime.zeta_c: must be finite" in text

    def test_parse_error_carries_position(self):
        with pytest.raises(ConfigError) as info:
            parse_config("{\n  \"experiment\": \n}")
        assert "line" in info.value.violations[0]

    def test_unknown_experiment_is_reported_once(self):
        # an unknown experiment reads no key, so no key is named as well
        with pytest.raises(ConfigError) as info:
            validate_config({"experiment": "rates", "regime": {"beta": 9},
                             "params": {"x": "a", "paths": 1}})
        assert info.value.violations == [
            "experiment: unknown experiment 'rates' (did you mean 'rate'?)"]

    def test_subseed_stable_and_label_sensitive(self):
        assert subseed(1, "a") == subseed(1, "a")
        assert subseed(1, "a") != subseed(1, "b")
        assert subseed(1, "a") != subseed(2, "a")


class TestCliRuns:
    @pytest.mark.parametrize("name", ["invariant", "poisson", "rate", "ldp",
                                      "asymptotics", "compare"])
    def test_subcommand_headers(self, tmp_path, name):
        code = main([name, "--out", str(tmp_path)])
        assert code == 0
        csv_path = tmp_path / f"{name}.csv"
        with open(csv_path, encoding="utf-8") as handle:
            header = handle.readline().strip()
        assert header == ",".join(CSV_HEADERS[name])

    def test_mc_flags(self, tmp_path):
        code = main(["mc", "--out", str(tmp_path), "--paths", "2000",
                     "--steps", "10", "--t", "0.01", "--k", "0.2",
                     "--seed", "5"])
        assert code == 0
        assert (tmp_path / "mc.csv").exists()

    def test_deterministic_outputs(self, tmp_path):
        for sub in ("invariant", "poisson", "rate", "ldp", "asymptotics",
                    "compare"):
            a_dir, b_dir = tmp_path / sub / "a", tmp_path / sub / "b"
            assert main([sub, "--out", str(a_dir)]) == 0
            assert main([sub, "--out", str(b_dir)]) == 0
            for fname in os.listdir(a_dir):
                with open(a_dir / fname, "rb") as fa, open(b_dir / fname, "rb") as fb:
                    assert fa.read() == fb.read(), f"{sub}/{fname} differs"

    def test_mc_deterministic(self, tmp_path):
        args = ["mc", "--paths", "5000", "--steps", "10", "--t", "0.01",
                "--k", "0.2", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        with open(tmp_path / "a" / "mc.csv", "rb") as fa, \
                open(tmp_path / "b" / "mc.csv", "rb") as fb:
            assert fa.read() == fb.read()

    @pytest.mark.parametrize("ids, named", [(["13"], "13"), (["0"], "0"),
                                            (["4", "13", "0"], "0, 13")])
    def test_unknown_criterion_rejected(self, tmp_path, capsys, ids, named):
        args = ["acceptance", "--out", str(tmp_path)]
        for cid in ids:
            args += ["--criterion", cid]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: --criterion: ")
        assert f"id {named} " in err
        assert not (tmp_path / "acceptance.json").exists()

    def test_invalid_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"regime": {"beta": 0.9}}))
        assert main(["rate", "--config", str(bad), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("sub, params, field", [
        ("mc", {"paths": "abc"}, "params.paths"),
        ("rate", {"x_values": "ab"}, "params.x_values"),
        ("ldp", {"x_min": "a"}, "params.x_min"),
        ("ldp", {"x_max": [0.1]}, "params.x_max"),
        ("ldp", {"n_points": "abc"}, "params.n_points"),
        ("compare", {"n_points": 3.7}, "params.n_points"),
        ("poisson", {"q_g": "x"}, "params.q_g"),
        ("poisson", {"functional": "quadratic"}, "params.functional"),
        ("mc", {"target": "tail"}, "params.target"),
        ("ldp", {"d_variant": "printed"}, "params.d_variant"),
    ])
    def test_bad_param_type_exit_code(self, tmp_path, capsys, sub, params, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"params": params}))
        assert main([sub, "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert f"config error: {field}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["invariant", "poisson", "rate", "ldp",
                                     "compare", "asymptotics"])
    @pytest.mark.parametrize("model", [
        {"kind": "stein_stein", "a": 0.3, "b": -1, "c": 0.4, "y0": 0.2},
        {"kind": "power"},
        {"kind": "constant_sigma"},
    ], ids=["stein_stein", "power", "constant_sigma"])
    def test_non_heston_factor_rejected(self, tmp_path, capsys, sub, model):
        # every deterministic runner reads Heston's square-root factor
        # (kappa, theta, xi); another kind has none to give
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        out = tmp_path / "out"
        assert main([sub, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"validation error: no square-root factor for kind '{model['kind']}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("extra, code", [([], 1), (["--t", "1"], 0)],
                             ids=["no_t", "t_flag"])
    def test_rv_tail_requires_t(self, tmp_path, capsys, extra, code):
        # the small-time default t = 0.01 puts the large-time realised-variance
        # threshold out of reach of every path; --t merges after the file is
        # validated, so it must still supply the horizon
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"params": {"target": "rv_tail", "paths": 2000, "steps": 10}}))
        assert main(["mc", "--config", str(cfg), "--out", str(tmp_path)] + extra) == code
        assert ("config error: params.t: required" in capsys.readouterr().err) \
            == (code == 1)
        assert (tmp_path / "mc.csv").exists() == (code == 0)

    def test_poisson_residuals_finite_at_small_gamma_shape(self, tmp_path):
        # Gamma shape 2 kappa theta / xi^2 = 0.03: the solve grid starts near
        # 1e-290, where the unscaled stencil's denominator underflows
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"model": {"kappa": 0.97, "theta": 0.0132, "xi": 0.916}}))
        assert main(["poisson", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "poisson.csv", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2046
        assert all(math.isfinite(float(row["residual"])) for row in rows)

    def test_poisson_at_large_gamma_shape(self, tmp_path):
        # Gamma shape 100.6: the truncation point y_lo = 9.5e-7 sits where
        # the log density is -1273.6, so 1/2 g^2 m underflows on the lower
        # part of the truncation interval and the grid starts above it
        kappa, theta, xi = 2.8, 0.95, 0.23
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kappa": kappa, "theta": theta, "xi": xi}}))
        assert main(["poisson", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "poisson.csv", encoding="utf-8") as handle:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)]
        assert len(rows) == 2046 and rows[0]["y"] > 1e-4
        assert all(math.isfinite(v) for row in rows for v in row.values())
        # the oracle u' = -1/kappa of the sweep's check, on its window
        # [theta/2, 2 theta] clipped to four standard deviations theta/sqrt(shape)
        # of the invariant law (the whole window at shape <= 16); further up,
        # the boundary term at y_hi, the 1 - 1e-12 quantile, dominates u'
        sd = theta * xi / math.sqrt(2 * kappa * theta)
        central = [row["u_prime"] for row in rows
                   if max(theta / 2, theta - 4 * sd) <= row["y"] <= min(2 * theta, theta + 4 * sd)]
        assert len(central) > 100
        assert max(abs(kappa * u + 1) for u in central) <= 1e-8

    @pytest.mark.parametrize("model", [
        {"kind": "power", "nu_g": "abc"},
        {"kind": "power", "nu_sigma": "abc"},
        {"kind": "power", "a": None},
        {"kind": "power", "b": "x"},
        {"kind": "power", "c_g": [0.5]},
        {"kind": "stein_stein", "c": "x"},
        {"kind": "constant_sigma", "c_sigma": [1]},
    ], ids=["nu_g", "nu_sigma", "a", "b", "c_g", "c", "c_sigma"])
    def test_bad_model_type_exit_code(self, tmp_path, capsys, model):
        # the presets check each domain, but a value that is no number
        # must be named before one of them compares or casts it
        key = next(k for k in model if k != "kind")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "params": {"paths": 1000, "steps": 5}}))
        assert main(["mc", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: model.{key}: expected a number")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_regime_gamma_is_an_unknown_key(self, tmp_path, capsys):
        # no runner reads a limit constant gamma: each computes at gamma = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"regime": {"gamma": 7.0}}))
        assert main(["rate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            "config error: regime: unknown key 'gamma' for experiment 'rate'\n"

    def test_asymptotics_at_negative_x(self, tmp_path):
        # a put strike x < 0: the realised-variance quotes price |x|, as the
        # call quote does, so they equal the quotes of the run at x = |x|
        rows = {}
        for x in (-0.3, 0.3):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"params": {"x": x}}))
            out = tmp_path / str(x)
            assert main(["asymptotics", "--config", str(cfg), "--out", str(out)]) == 0
            with open(out / "asymptotics.csv", encoding="utf-8") as handle:
                rows[x] = [row for row in csv.DictReader(handle)
                           if row["regime"].startswith("rv_option_")]
        assert len(rows[-0.3]) == 2
        assert all(float(row["x_or_k"]) == 0.3 for row in rows[-0.3])
        assert rows[-0.3] == rows[0.3]

    def test_asymptotics_at_zero_x(self, tmp_path, capsys):
        # the realised-variance quotes price |x| = 0, a strike they refuse:
        # the config is refused before any quote is computed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"x": 0}}))
        out = tmp_path / "out"
        assert main(["asymptotics", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("config error: params.x: must be non-zero: "
                                           "the realised-variance quotes price |x|\n")
        assert not out.exists()

    def test_asymptotics_at_zero_k(self, tmp_path, capsys):
        # the small-time call quote refuses k <= 0, so validation does too
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"k": 0}}))
        out = tmp_path / "out"
        assert main(["asymptotics", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: params.k: must be > 0, got 0\n"
        assert not out.exists()

    def test_unparseable_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json }")
        assert main(["rate", "--config", str(bad), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe{}", "{bad}: not UTF-8 text: invalid start byte at byte 0"),
        (b"[" * 100_000 + b"]" * 100_000, "parse error: the document nests too deeply"),
    ], ids=["not_utf8", "deep_nesting"])
    def test_malformed_config_file_exit_code(self, tmp_path, capsys, content, message):
        # a config file is UTF-8 JSON only; an undecodable file or one that
        # nests past the parser's depth is one config error line
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "out"
        assert main(["rate", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {message.format(bad=bad)}\n"
        assert not out.exists()

    def test_domain_error_exit_code(self, tmp_path):
        # share-measure tilt undefined: kappa - rho xi <= 0 surfaces as
        # a validation failure from the rate pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "rate",
            "model": {"kind": "heston", "kappa": 0.6, "theta": 0.1, "xi": 0.9,
                      "rho": 0.9, "x0": 0.0, "y0": 0.1},
        }))
        assert main(["rate", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("experiment, doc", [
        ("rate", {"params": {"x_values": [1e308]}}),
        ("rate", {"regime": {"zeta_c": 1e308}}),
        ("mc", {"params": {"k": 1e300, "t": 0.5, "paths": 100, "steps": 2}}),
        ("asymptotics", {"params": {"k": 1e300}}),
        ("asymptotics", {"params": {"x": 1e300}}),
        # a JSON integer beyond float range is finite, and valid until a float needs it
        ("asymptotics", {"params": {"k": 10 ** 400}}),
        # a finite input so small that xi^2 or a power of y underflows to 0
        *((experiment, {"model": {"xi": 1e-200}}) for experiment in (
            "invariant", "poisson", "rate", "ldp", "compare", "asymptotics")),
        ("invariant", {"model": {"theta": 1e-300}, "params": {"q_g": 0.75}}),
        ("poisson", {"model": {"theta": 1e-300}, "params": {"q_g": 0.75}}),
    ])
    def test_overflowing_input_exit_code(self, tmp_path, capsys, experiment, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main([experiment, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {experiment}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("experiment, key", [("mc", "paths"), ("ldp", "n_points")])
    def test_unallocatable_size_exit_code(self, tmp_path, capsys, experiment, key):
        # 2^62 doubles exceed what one array can address, so numpy refuses
        # the size before it allocates anything
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {key: 2 ** 62}}))
        assert main([experiment, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: params.{key}: {2 ** 62} needs more memory")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_paths_beyond_address_space_limit(self, tmp_path):
        # a child process capped at 2 GiB of address space runs a small mc,
        # and reports 10^12 paths (8 TB of terminal values) as too many
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(mdpvol.__file__)))
        runs = {}
        for paths in (3000, 10 ** 12):
            runs[paths] = subprocess.run(
                [sys.executable, "-m", "mdpvol", "mc", "--paths", str(paths),
                 "--steps", "10", "--out", str(tmp_path / str(paths))],
                env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120)
        assert runs[3000].returncode == 0, runs[3000].stderr
        assert (tmp_path / "3000" / "mc.csv").exists()
        big = runs[10 ** 12]
        assert big.returncode == 1
        assert big.stderr.startswith(f"validation error: params.paths: {10 ** 12} needs")
        assert big.stderr.count("\n") == 1 and "Traceback" not in big.stderr
        assert not (tmp_path / str(10 ** 12)).exists()

    def test_rate_x_and_x_values_rejected(self, tmp_path, capsys):
        # rate reads x_values when both are given, so x would be ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"x": 0.2, "x_values": [0.05]}}))
        assert main(["rate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            "config error: params.x: give x or x_values, not both\n"

    def test_unhashable_kind_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kind": []}}))
        assert main(["rate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: model.kind: unknown kind")

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_model_flag_keeps_the_keys_its_kind_reads(self, tmp_path, kind):
        # --model swaps the kind of a config; the keys both kinds read keep
        # the config's values, and the rest take the new kind's defaults
        shared = {"rho": 0.3, "x0": 0.05, "y0": 0.2}
        other = {"kind": "stein_stein", "c": 0.6} if kind == "heston" \
            else {"kind": "heston", "kappa": 3.0}
        flagged = {"model": {**other, **shared}}
        direct = {"model": {"kind": kind, **{key: value for key, value in shared.items()
                                             if key in MODELS[kind].defaults}}}
        outputs = []
        for name, doc in (("flagged", flagged), ("direct", direct)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(doc))
            out = tmp_path / name
            assert main(["mc", "--config", str(cfg), "--model", kind, "--paths", "3000",
                         "--steps", "10", "--out", str(out)]) == 0
            outputs.append((out / "mc.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("model, warns", [(["--model", "stein_stein"], True),
                                              ([], False)], ids=["stein_stein", "heston"])
    def test_zero_estimate_warns(self, tmp_path, capsys, model, warns):
        # Stein-Stein's default target -2 is out of reach of 3000 paths
        assert main(["mc", *model, "--paths", "3000", "--steps", "10",
                     "--out", str(tmp_path)]) == 0
        warning = ("warning: mc: no path of 3000 reached the smalltime_tail threshold, "
                   "so the estimate is 0 and normalized_log is -inf\n")
        assert capsys.readouterr().err == (warning if warns else "")
        row = (tmp_path / "mc.csv").read_text().splitlines()[1]
        assert row.startswith("0,0,-inf,") is warns

    @pytest.mark.parametrize("target", ["smalltime_tail", "call"])
    def test_zero_spot_volatility_exit_code(self, tmp_path, capsys, target):
        # Stein-Stein has sigma = y, so y0 = 0 leaves no small-time target
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kind": "stein_stein", "y0": 0.0},
                                   "params": {"target": target}}))
        assert main(["mc", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == ("validation error: "
                                           "sigma(y0): must be non-zero, got 0.0\n")
        assert not (tmp_path / "mc.csv").exists()

    @pytest.mark.parametrize("sub, out, doc, message", [
        ("rate", "file", {}, "output error: "),
        ("ldp", "file/sub", {}, "output error: "),
        ("acceptance", "file", {}, "output error: "),
        ("rate", ".", {"out_prefix": "a\u0000b"}, "config error: out_prefix: "),
    ], ids=["out-is-file", "out-under-file", "acceptance-out-is-file", "nul-prefix"])
    def test_output_path_error_exit_code(self, tmp_path, capsys, sub, out, doc, message):
        (tmp_path / "file").write_text("")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        extra = ["--criterion", "11"] if sub == "acceptance" else []
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / out), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "file"]


# For each (experiment, block, key) of config.EXPERIMENTS: a value that is
# not the default.  Each must change that experiment's output bytes; a key
# that changes nothing is an option that accepts every value and ignores it.
# The keys of an mc target count once per target, under "mc/<target>".
_KEY_CHANGES = {
    ("invariant", "params", "q_g"): 0.75,
    ("poisson", "params", "q_g"): 0.75,
    ("poisson", "params", "functional"): "half_centered_variance",
    ("rate", "regime", "zeta_c"): 0.5,
    ("rate", "params", "x"): 0.2,
    ("rate", "params", "x_values"): [0.05, 0.15],
    **{(experiment, "params", key): value for experiment in ("ldp", "compare")
       for key, value in (("x_min", -0.2), ("x_max", 0.1), ("n_points", 11),
                          ("d_variant", "standard"))},
    ("mc", "regime", "beta"): 0.3,
    ("mc", "params", "target"): "call",
    ("mc/smalltime_tail", "params", "t"): 0.02,
    ("mc/smalltime_tail", "params", "k"): 0.3,
    ("mc/rv_tail", "params", "t"): 2.0,
    ("mc/rv_tail", "params", "x"): 0.02,
    ("mc/call", "params", "t"): 0.02,
    ("mc/call", "params", "k"): 0.3,
    ("mc", "params", "paths"): 3000,
    ("mc", "params", "steps"): 8,
    ("mc", "params", "antithetic"): True,
    ("asymptotics", "regime", "beta"): 0.3,
    ("asymptotics", "params", "k"): 0.3,
    ("asymptotics", "params", "x"): 0.2,
    ("asymptotics", "params", "t"): 50.0,
}
# every run of mc stays small, and rv_tail has no default t
_BASE_PARAMS = {"mc": {"paths": 2000, "steps": 10},
                **{f"mc/{name}": {"target": name, "paths": 2000, "steps": 10}
                   for name in TARGETS}}
_BASE_PARAMS["mc/rv_tail"]["t"] = 1.0


def _outputs(directory, experiment: str, doc: dict) -> list:
    directory.mkdir()
    cfg = directory / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = directory / "out"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 0
    return sorted((p.name, p.read_bytes()) for p in out.iterdir())


def _experiment_pairs() -> set:
    return {(experiment, block, key) for experiment, reads in EXPERIMENTS.items()
            for block, keys in reads.items() for key in keys}


def _table_pairs() -> set:
    """The pairs of config.EXPERIMENTS, with mc's target keys once per target."""
    split = {(f"mc/{name}", "params", key) for name, target in TARGETS.items()
             for key in target.bounds}
    return (_experiment_pairs() - {("mc", block, key) for _, block, key in split}) | split


def test_key_table_covers_every_regime_and_params_key():
    assert sorted(_table_pairs() - set(_KEY_CHANGES)) == []
    # an entry whose key its experiment no longer reads is stale
    assert sorted(set(_KEY_CHANGES) - _table_pairs()) == []
    # the mc targets are the table's entries, no more and no fewer
    assert _PARAM_CHOICES["target"] == tuple(TARGETS)


_KEYS = sorted({(block, key) for _, block, key in _KEY_CHANGES})


@pytest.mark.parametrize("block, key", _KEYS, ids=[key for _, key in _KEYS])
def test_every_key_changes_an_output(tmp_path, block, key):
    experiments = [name for name, b, k in sorted(_KEY_CHANGES) if (b, k) == (block, key)]
    for name in experiments:
        entry = (name, block, key)
        base = {"params": dict(_BASE_PARAMS.get(name, {}))}
        changed = {"params": dict(base["params"])}
        changed.setdefault(block, {})[key] = _KEY_CHANGES[entry]
        experiment, label = name.partition("/")[0], name.replace("/", "-")
        assert (_outputs(tmp_path / f"{label}-changed", experiment, changed)
                != _outputs(tmp_path / f"{label}-base", experiment, base)), entry


# every regime and params key under each experiment that does not read it
_REJECTED = sorted({(experiment, block, key) for experiment in EXPERIMENTS
                    for _, block, key in _KEY_CHANGES} - _experiment_pairs())


@pytest.mark.parametrize("experiment, block, key", _REJECTED,
                         ids=["-".join(entry) for entry in _REJECTED])
def test_key_outside_the_table_rejected(experiment, block, key):
    # None is a bad value for every key: only the key itself is reported
    with pytest.raises(ConfigError) as info:
        validate_config({"experiment": experiment, block: {key: None}})
    assert info.value.violations == [
        f"{block}: unknown key '{key}' for experiment '{experiment}'"]


@pytest.mark.parametrize("args, doc, line", [
    (["rate"], {"params": {"paths": 2000, "d_variant": "standard", "q_g": 0.75}},
     "params: unknown key 'paths' for experiment 'rate'"),
    (["mc", "--paths", "2000"], {"params": {"x_values": [0.1], "q_g": 0.75},
                                 "regime": {"zeta_c": 0.5}},
     "regime: unknown key 'zeta_c' for experiment 'mc'"),
    (["acceptance", "--criterion", "3"], {"params": {"t": 1.0}, "regime": {"beta": 0.3},
                                          "model": {"kappa": 3.0}},
     "regime: unknown key 'beta' for experiment 'acceptance'"),
], ids=["rate", "mc", "acceptance"])
def test_cli_rejects_keys_its_experiment_does_not_read(tmp_path, capsys, args, doc, line):
    # the file is validated as the subcommand's experiment, whatever its own says
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "ldp", **doc}))
    out = tmp_path / "out"
    assert main([*args, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert f"config error: {line}" in err
    assert len(err) == sum(len(block) for name, block in doc.items() if name != "model")
    assert all(text.startswith("config error: ") for text in err)
    assert not out.exists()


# each level key under each mc target that does not read it
_OTHER_TARGET_KEYS = sorted((name, key) for name, target in TARGETS.items()
                            for key in TARGET_KEYS if key not in target.bounds)


@pytest.mark.parametrize("source", ["file", "flag"])
@pytest.mark.parametrize("target, key", _OTHER_TARGET_KEYS,
                         ids=[f"{name}-{key}" for name, key in _OTHER_TARGET_KEYS])
def test_key_of_another_mc_target_rejected(tmp_path, capsys, target, key, source):
    # a level key the target does not read would change no output; None is
    # a bad value, so only the key itself is reported
    params = {"target": target, "t": 0.5, "paths": 1000, "steps": 5}
    flags = [f"--{key}", "0.02"] if source == "flag" else []
    if source == "file":
        params[key] = None
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params}))
    out = tmp_path / "out"
    assert main(["mc", "--config", str(cfg), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == (
        f"config error: params: unknown key '{key}' for mc target '{target}'\n")
    assert not out.exists()


@pytest.mark.parametrize("params, line", [
    ({"t": 2.0}, "params.t: must be < 1, got 2.0"),
    ({"target": "call", "t": 1.0}, "params.t: must be < 1, got 1.0"),
    ({"target": "call", "k": 0}, "params.k: must be > 0, got 0"),
    ({"target": "rv_tail", "t": 1.0, "x": -0.05}, "params.x: must be > 0, got -0.05"),
    ({"target": "rv_tail"},
     "params.t: required for mc target 'rv_tail', which has no default for it"),
], ids=["smalltime-t", "call-t", "call-k", "rv-x", "rv-no-t"])
def test_mc_target_bounds_reported_with_every_violation(params, line):
    # a target's bounds, and its need of t, are checked at validation and
    # reported in the list of every violation
    with pytest.raises(ConfigError) as info:
        validate_config({"experiment": "mc", "regime": {"beta": 0.7},
                         "params": {**params, "steps": 0}})
    assert sorted(info.value.violations) == sorted([
        "regime.beta: must be < 0.5, got 0.7", line,
        "params.steps: must be >= 1, got 0"])


def _readme_rows(header: str) -> list[list[str]]:
    """The cells of each row of the README table under ``header``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert readme.count(header) == 1
    rows = []
    for row in readme.split(header)[1].splitlines()[2:]:
        if not row.startswith("|"):
            break
        rows.append(row.strip("|").split("|"))
    return rows


def _bound_text(key: str, lo=None, hi=None, lo_strict=False, hi_strict=False) -> str:
    text = key if lo is None else f"{lo} {'<' if lo_strict else '<='} {key}"
    return text if hi is None else f"{text} {'<' if hi_strict else '<='} {hi}"


def test_readme_lists_the_keys_of_each_experiment():
    listed = {}
    for row in _readme_rows("| experiment | `regime` keys | `params` keys |"):
        names, regime, params = (re.findall(r"`(\w+)`", cell) for cell in row)
        listed.update({name: {"regime": tuple(regime), "params": tuple(params)}
                       for name in names})
    assert listed == EXPERIMENTS
    # each mc target's keys, defaults and bounds
    rows = _readme_rows("| `mc` target | keys with defaults | bounds |")
    listed = {re.findall(r"`(\w+)`", name)[0]: (re.findall(r"`(\w+)` ([\w.]+)", keys),
                                                bounds.strip())
              for name, keys, bounds in rows}
    assert listed == {
        name: ([(key, str(target.defaults.get(key, "required"))) for key in target.bounds],
               ", ".join(_bound_text(key, **bounds) for key, bounds in target.bounds.items()))
        for name, target in TARGETS.items()}


# For each model kind and each key it reads: an mc target, a base model
# block and a value that is not the base's.  Each key must change the mc.csv
# bytes.  The bases give hits: at Stein-Stein's default y0 = 0.1 the tail
# estimate is 0 at these batch sizes.  Under smalltime_tail the threshold
# moves with x0, so x0 and the drift-only keys are read through a call.
# Heston's rho and Stein-Stein's a are read through a call too: a tail row
# is a hit count, which two values can share by chance at 3 000 paths,
# while the call payoff is continuous in every X_T.
_MODEL_KEY_CHANGES = {
    ("heston", "kappa"): ("call", {}, 3.0),
    ("heston", "theta"): ("call", {}, 0.2),
    ("heston", "xi"): ("smalltime_tail", {}, 0.8),
    ("heston", "rho"): ("call", {}, 0.3),
    ("heston", "x0"): ("call", {}, 0.05),
    ("heston", "y0"): ("smalltime_tail", {}, 0.3),
    ("stein_stein", "a"): ("call", {"y0": 0.3}, 0.3),
    ("stein_stein", "b"): ("call", {"y0": 0.3}, -2.0),
    ("stein_stein", "c"): ("smalltime_tail", {"y0": 0.3}, 0.6),
    ("stein_stein", "rho"): ("smalltime_tail", {"y0": 0.3}, 0.2),
    ("stein_stein", "x0"): ("call", {"y0": 0.3}, 0.05),
    ("stein_stein", "y0"): ("smalltime_tail", {"y0": 0.3}, 0.5),
    ("power", "a"): ("call", {}, 0.4),
    ("power", "b"): ("call", {}, -1.0),
    ("power", "c_g"): ("smalltime_tail", {}, 0.3),
    ("power", "c_sigma"): ("smalltime_tail", {}, 1.5),
    ("power", "nu_g"): ("smalltime_tail", {}, 0.25),
    ("power", "nu_sigma"): ("smalltime_tail", {}, 0.25),
    ("power", "rho"): ("smalltime_tail", {}, 0.1),
    ("power", "x0"): ("call", {}, 0.05),
    ("power", "y0"): ("smalltime_tail", {}, 0.3),
    ("constant_sigma", "c_sigma"): ("smalltime_tail", {}, 0.4),
    ("constant_sigma", "x0"): ("call", {}, 0.05),
}


def test_model_key_table_covers_every_model_key():
    keys = {(kind, key) for kind, entry in MODELS.items() for key in entry.defaults}
    assert sorted(keys - set(_MODEL_KEY_CHANGES)) == []
    # an entry whose key its kind no longer reads is stale
    assert sorted(set(_MODEL_KEY_CHANGES) - keys) == []


@pytest.mark.parametrize("kind, key", sorted(_MODEL_KEY_CHANGES),
                         ids=[f"{kind}-{key}" for kind, key in sorted(_MODEL_KEY_CHANGES)])
def test_every_model_key_changes_mc(tmp_path, kind, key):
    target, base_model, value = _MODEL_KEY_CHANGES[kind, key]
    params = {"target": target, "paths": 3000, "steps": 10}
    base = {"model": {"kind": kind, **base_model}, "params": params}
    changed = {"model": {**base["model"], key: value}, "params": params}
    assert (_outputs(tmp_path / "changed", "mc", changed)
            != _outputs(tmp_path / "base", "mc", base))


@pytest.mark.parametrize("kind, key", [
    ("heston", "nu_g"), ("stein_stein", "c_g"), ("power", "kappa"),
    ("constant_sigma", "rho"),
])
def test_model_key_of_another_kind_rejected(tmp_path, capsys, kind, key):
    # a key the kind does not read would change no output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"kind": kind, key: 0.5},
                               "params": {"paths": 1000, "steps": 5}}))
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: model: unknown key '{key}' for kind '{kind}'\n"
    assert not (tmp_path / "mc.csv").exists()


class TestCompareOutputs:
    def test_minima_match_at_center(self, tmp_path):
        assert main(["compare", "--out", str(tmp_path)]) == 0
        rows = {}
        with open(tmp_path / "compare.csv", encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            for line in handle:
                cells = line.strip().split(",")
                rows[float(cells[0])] = dict(zip(header, map(float, cells)))
        center = min(rows, key=lambda x: abs(x + 0.05))
        assert abs(center + 0.05) < 1e-12
        assert rows[center]["abs_diff"] <= 1e-12

    def test_summary_records_passing_variant(self, tmp_path):
        assert main(["compare", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "compare_summary.json", encoding="utf-8") as handle:
            summary = json.load(handle)
        assert summary["passing_variant"] == "standard"
        assert summary["curvature_identity_residual"]["standard"] <= 1e-3

    def test_cubic_growth_of_difference_near_minimum(self, tmp_path):
        # under the variant satisfying the curvature identity, the gap between
        # the rate function and the matched quadratic is third order
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "compare",
            "params": {"d_variant": "standard", "n_points": 161,
                       "x_min": -0.13, "x_max": 0.03},
        }))
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        xs, diffs = [], []
        with open(tmp_path / "compare.csv", encoding="utf-8") as handle:
            handle.readline()
            for line in handle:
                cells = line.strip().split(",")
                xs.append(float(cells[0]))
                diffs.append(float(cells[3]))
        import numpy as np

        xs = np.asarray(xs) + 0.05
        diffs = np.asarray(diffs)
        window = (np.abs(xs) > 0.01) & (np.abs(xs) < 0.06) & (diffs > 0)
        slope = np.polyfit(np.log(np.abs(xs[window])), np.log(diffs[window]), 1)[0]
        assert slope >= 2.7

    def test_undefined_lambda_star_rows_left_empty(self, tmp_path, capsys):
        # under the printed cubic radicand, d(u)^2 turns negative inside
        # (u_minus, u_plus) for this model: those rows keep x, leave the other
        # cells empty, and the shift is the minimum over the defined rows
        model = {"kind": "heston", "kappa": 1.7, "theta": 0.017, "xi": 0.68,
                 "rho": -0.5, "x0": 0.0, "y0": 0.017}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        for sub, name in (("ldp", "ldp.csv"), ("compare", "compare.csv")):
            assert main([sub, "--config", str(cfg), "--out", str(tmp_path)]) == 0
            err = capsys.readouterr().err
            assert "Lambda* is undefined at 34 of 101 x values" in err
            assert "radicand of d(u) is negative" in err
            with open(tmp_path / name, encoding="utf-8") as handle:
                rows = list(csv.reader(handle))[1:]
            assert len(rows) == 101
            empty = [row for row in rows if row[1:] == ["", "", ""]]
            defined = [[float(cell) for cell in row] for row in rows if row[1]]
            assert len(empty) == 34 and len(defined) == 67
            assert all(math.isfinite(float(row[0])) for row in empty)
            # the quadratic is shifted to the defined minimum of Lambda*
            lam_min = min(row[1] for row in defined)
            center = min(defined, key=lambda row: abs(row[0] + 0.017 / 2))
            assert center[2] == pytest.approx(lam_min, abs=1e-5)
        with open(tmp_path / "compare_summary.json", encoding="utf-8") as handle:
            assert json.load(handle)["min_lambda_star"] == lam_min
        # a grid with no defined row is an error
        cfg.write_text(json.dumps({"model": model,
                                   "params": {"x_min": 0.03, "x_max": 0.09}}))
        assert main(["ldp", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "Lambda* is undefined at 101 of 101" in capsys.readouterr().err

    def test_negative_lambda_star_rows_warned(self, tmp_path, capsys):
        # a Fenchel transform is never negative: under the printed radicand
        # this model's closed form gives 4 rows below 0, and each run says so
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {
            "kind": "heston", "kappa": 1.7, "theta": 0.017, "xi": 0.68,
            "rho": -0.5, "x0": 0.0, "y0": 0.017}}))
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if "Lambda* is negative" in line]
        assert len(warnings) == 1
        assert warnings[0].startswith(
            "warning: Lambda* is negative at 4 of 101 x values (d_variant as_printed); "
            "first at x=")
        assert "(min -0.0889399)" in warnings[0]
        with open(tmp_path / "compare.csv", encoding="utf-8") as handle:
            lam = [float(row[1]) for row in list(csv.reader(handle))[1:] if row[1]]
        assert sum(value < 0 for value in lam) == 4

    def test_default_compare_prints_no_warning(self, tmp_path, capsys):
        # the reference set's minimum of Lambda* is -3e-17, roundoff
        assert main(["compare", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("sub", ["ldp", "compare"])
    @pytest.mark.parametrize("d_variant", ["as_printed", "standard"])
    def test_negative_xi_mirrors_positive(self, tmp_path, sub, d_variant):
        # (xi, rho) -> (-xi, -rho) flips the factor's Brownian motion, which
        # leaves the law of the log price, and so Lambda*, unchanged
        files = []
        for xi, rho in ((0.5, 0.5), (-0.5, -0.5)):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"model": {"xi": xi, "rho": rho},
                                       "params": {"d_variant": d_variant}}))
            out = tmp_path / f"xi{xi}"
            assert main([sub, "--config", str(cfg), "--out", str(out)]) == 0
            files.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
        assert files[0] == files[1]
