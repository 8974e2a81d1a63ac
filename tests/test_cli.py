import contextlib
import copy
import csv
import dataclasses
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bridgebound.cli as cli
import bridgebound.gcomp as gcomp
from bridgebound.gcomp import PRIOR_KEYS, SETTING_KEYS
from bridgebound.data import BENCHMARK_KEYS, SCHEMA_KEYS, SPEC_KEYS, save_dataset
from bridgebound.errors import RUN_KEYS, ConfigError, Key, NumericalFailure, _fits, check
from bridgebound import oracle
from bridgebound.oracle import CHECK_THRESHOLDS
from conftest import BENCH_SPEC, NULL_SPEC, P0_SPEC, nan_after_first
from bridgebound.bridge import MediatorModel
from bridgebound.data import (BenchmarkSpec, Dataset, SyntheticSpec, generate_synthetic,
                              load_dataset)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    bench, _ = generate_synthetic(BENCH_SPEC, seed=11)
    null, _ = generate_synthetic(NULL_SPEC, seed=23)
    p0, _ = generate_synthetic(P0_SPEC, seed=3)
    save_dataset(bench, str(root / "bench.csv"))
    save_dataset(null, str(root / "null.csv"))
    save_dataset(p0, str(root / "p0.csv"))
    return root


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


FAST = {"draws": 15, "burn_in": 2, "mediator_draws": 6, "seed": 5}


class TestRenderJson:
    def test_sorted_keys_and_17g_floats(self):
        text = cli.render_json({"b": 0.1, "a": [1, True, None, "x"]})
        assert text.index('"a"') < text.index('"b"')
        assert "0.10000000000000001" in text
        assert "true" in text and "null" in text
        assert json.loads(text) == {"b": 0.1, "a": [1, True, None, "x"]}

    def test_numpy_types(self):
        text = cli.render_json({"v": np.float64(0.5), "n": np.int64(3),
                                "arr": np.array([1.0, 2.0]),
                                "flag": np.bool_(False)})
        parsed = json.loads(text)
        assert parsed == {"v": 0.5, "n": 3, "arr": [1.0, 2.0], "flag": False}

    def test_unrenderable_type(self):
        with pytest.raises(ConfigError):
            cli.render_json({"x": object()})

    def test_empty_containers(self):
        assert cli.render_json({}) == "{}"
        assert cli.render_json([]) == "[]"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
    @pytest.mark.parametrize("obj,path", [
        (lambda v: {"summary": {"theta": {"mean": v, "q2.5": 0.0}}}, "summary.theta.mean"),
        (lambda v: {"fuzz": {"stats": [1.0, v]}}, "fuzz.stats[1]"),
        (lambda v: v, "the top level"),
    ])
    def test_non_finite_float_is_numerical_failure(self, bad, obj, path):
        with pytest.raises(NumericalFailure, match=f"at {re.escape(path)};"):
            cli.render_json(obj(bad))


class TestSimulate:
    def spec_cfg(self, **extra):
        cfg = {"spec": {"n": 265, "p": 4, "beta_m": [0.2, 1.0, 0.5, -0.3, 0.1, 0.0],
                        "c_a": 0.4, "c_m": 0.8}, "seed": 9}
        cfg.update(extra)
        return cfg

    def test_writes_dataset_and_truth(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", self.spec_cfg())
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 266
        assert lines[0] == "treat,m,y,x1,x2,x3,x4"
        truth = json.loads(capsys.readouterr().out)
        assert truth["nie"] == 0.8 and truth["nde"] == 0.4 and truth["seed"] == 9

    def test_byte_reproducible(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", self.spec_cfg())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["simulate", "--config", cfg, "--out", str(a)])
        first = capsys.readouterr().out
        cli.main(["simulate", "--config", cfg, "--out", str(b)])
        second = capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()
        assert first == second

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", self.spec_cfg())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["simulate", "--config", cfg, "--out", str(a)])
        cli.main(["simulate", "--config", cfg, "--seed", "10", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_truth_out_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json",
                           self.spec_cfg(truth_out=str(tmp_path / "truth.json")))
        cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "d.csv")])
        stdout = capsys.readouterr().out
        assert (tmp_path / "truth.json").read_text() == stdout

    def test_bad_variance_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", {
            "spec": {"n": 60, "p": 0, "beta_m": [0.0, 1.0], "sigma_m": -1.0}})
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "d.csv")]) == 2
        capsys.readouterr()

    def test_unknown_spec_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", {
            "spec": {"n": 60, "p": 0, "beta_m": [0.0, 1.0], "effect": 2.0}})
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "d.csv")]) == 2
        assert "effect" in capsys.readouterr().err

    def test_unwritable_dataset_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", self.spec_cfg())
        out = tmp_path / "no-such-dir" / "sim.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_out_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", self.spec_cfg())
        assert cli.main(["simulate", "--config", cfg]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("key,value,message", [
        ("beta_m", ["x", 1.0], "'beta_m' must be a non-empty list of numbers"),
        ("n", "60", "'n' must be an integer"),
        ("n", 60.0, "'n' must be an integer"),
        ("p", True, "'p' must be an integer"),
        ("sigma_m", "1", "spec key 'sigma_m' must be a number"),
        ("c_a", None, "spec key 'c_a' must be a number"),
        ("treat_prob", False, "spec key 'treat_prob' must be a number"),
        ("benchmark", {"low": "0", "high": 2.0}, "benchmark key 'low' must be a number"),
        ("benchmark", [0.0, 2.0], "'benchmark' must be a JSON object"),
    ])
    def test_non_numeric_spec_values(self, tmp_path, capsys, key, value, message):
        spec = {"n": 60, "p": 0, "beta_m": [0.0, 1.0], key: value}
        cfg = write_config(tmp_path, "sim.json", {"spec": spec})
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "d.csv")]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "fit", "sweep", "verify"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_seed_is_config_error(data_dir, tmp_path, capsys, command, where):
    cfg = {"simulate": {"spec": {"n": 60, "p": 0, "beta_m": [0.0, 1.0]}},
           "fit": {"data": str(data_dir / "null.csv"), "setting": {"route": "si_anchor"}},
           "sweep": {"data": str(data_dir / "null.csv"), "axis": "k", "grid": [0.5],
                     "setting": {"route": "residual_budget"}},
           "verify": {"n_models": 4}}[command]
    argv = [command, "--out", str(tmp_path / "out")]
    if where == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg["seed"] = -1
    argv += ["--config", write_config(tmp_path, "cfg.json", cfg)]
    assert cli.main(argv) == 2
    assert "key 'seed' must be an integer >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command,key,value", [
    ("fit", "pooled_gamma", "false"),
    ("fit", "comonotone", 1),
    ("fit", "pooled_gamma", None),
    ("sweep", "comonotone", "true"),
    ("verify", "inject_corrupt", "false"),
    ("verify", "inject_corrupt", 1),
])
def test_flags_must_be_json_booleans(data_dir, tmp_path, capsys, command, key, value):
    setting = {"route": "benchmark_raw", key: value}
    cfg = {"fit": {"data": str(data_dir / "bench.csv"), "setting": setting, **FAST},
           "sweep": {"data": str(data_dir / "bench.csv"), "axis": "kappa",
                     "grid": [1.0], "setting": setting, **FAST},
           "verify": {"n_models": 4, key: value}}[command]
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and "must be true or false" in err
    assert not out.exists()


@pytest.mark.parametrize("command,key,value", [
    ("fit", "data", None),
    ("fit", "data", 5),
    ("sweep", "data", None),
    ("sweep", "axis", ["kappa"]),
    ("simulate", "truth_out", 5),
])
def test_string_keys_must_be_json_strings(data_dir, tmp_path, capsys, command, key, value):
    cfg = {"fit": {"data": str(data_dir / "null.csv"), "setting": {"route": "si_anchor"}},
           "sweep": {"data": str(data_dir / "null.csv"), "axis": "k", "grid": [0.5],
                     "setting": {"route": "residual_budget"}},
           "simulate": {"spec": {"n": 60, "p": 0, "beta_m": [0.0, 1.0]}}}[command]
    cfg.update(FAST if command != "simulate" else {}, **{key: value})
    argv = [command, "--config", write_config(tmp_path, "cfg.json", cfg),
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert f"config key '{key}' must be a string" in capsys.readouterr().err


class TestNoCovariates:
    """A dataset with p = 0, whose mediator design is (1, a), end to end."""

    ROUTES = {"si_anchor": {},
              "benchmark_raw": {"kappa0": 1.5, "kappa1": 1.5},
              "benchmark_rank": {"gamma_cap": 1.3, "pooled_gamma": True},
              "residual_budget": {"k0": 0.3, "k1": 0.3, "g0": 2.0, "g1": 2.0}}

    def test_one_law_for_every_unit(self, data_dir):
        data = load_dataset(str(data_dir / "p0.csv"))
        assert data.p == 0
        law = MediatorModel.fit(data).draw(np.random.default_rng(4))
        assert law.mean0.shape == (data.n,) and np.unique(law.mean0).size == 1

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_fit_byte_identical_across_threads(self, data_dir, tmp_path, route):
        cfg = write_config(tmp_path, "fit.json", {
            "data": str(data_dir / "p0.csv"),
            "setting": {"route": route, **self.ROUTES[route]}, **FAST})
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        assert cli.main(["fit", "--config", cfg, "--threads", "1", "--out", str(one)]) == 0
        assert cli.main(["fit", "--config", cfg, "--threads", "2", "--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()
        assert json.loads(one.read_text())["run"]["route"] == route

    def test_kappa_sweep_byte_identical_across_threads(self, data_dir, tmp_path):
        cfg = write_config(tmp_path, "sweep.json", {
            "data": str(data_dir / "p0.csv"), "axis": "kappa", "grid": [1.0, 1.5, 2.0],
            "overlays": [{"label": "raw", "setting": {"route": "benchmark_raw"}},
                         {"label": "rank", "setting": {"route": "benchmark_rank"}}],
            **FAST})
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert cli.main(["sweep", "--config", cfg, "--threads", "1", "--out", str(one)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--threads", "2", "--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()
        assert len(one.read_text().splitlines()) == 1 + 2 * 3


class TestFit:
    def test_null_data_near_zero_nie(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, "fit.json", {
            "data": str(data_dir / "null.csv"),
            "setting": {"route": "si_anchor"},
            "draws": 60, "burn_in": 5, "mediator_draws": 12, "seed": 5})
        out = tmp_path / "fit.json.out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        nie = payload["summary"]["nie"]
        assert nie["q2.5"] <= 0.0 <= nie["q97.5"]
        meta = payload["run"]
        assert meta["n_units"] == NULL_SPEC.n and meta["draws"] == 60
        assert meta["route"] == "si_anchor" and meta["seed"] == 5

    def test_byte_identical_across_threads(self, data_dir, tmp_path):
        base = {"data": str(data_dir / "bench.csv"),
                "setting": {"route": "benchmark_raw", "kappa0": 1.5, "kappa1": 1.5},
                **FAST}
        cfg = write_config(tmp_path, "fit.json", base)
        one, four = tmp_path / "one.json", tmp_path / "four.json"
        assert cli.main(["fit", "--config", cfg, "--threads", "1",
                         "--out", str(one)]) == 0
        assert cli.main(["fit", "--config", cfg, "--threads", "4",
                         "--out", str(four)]) == 0
        assert one.read_bytes() == four.read_bytes()

    def test_missing_schema_column(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, "fit.json", {
            "data": str(data_dir / "null.csv"),
            "schema": {"treatment": "treat", "mediator": "m", "outcome": "score"},
            "setting": {"route": "si_anchor"}, **FAST})
        assert cli.main(["fit", "--config", cfg]) == 2
        assert "score" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["fit", "--config", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("text,message", [
        ('{"data": ', "is not valid JSON: Expecting value: line 1 column 10 (char 9)"),
        ('["data", "study.csv"]', "config root must be a JSON object"),
        ("null", "config root must be a JSON object"),
    ], ids=["truncated", "list_root", "null_root"])
    def test_unreadable_config_text(self, tmp_path, capsys, text, message):
        path = tmp_path / "fit.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            cli.load_config(str(path))
        out = tmp_path / "fit.out"
        assert cli.main(["fit", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.endswith(message + "\n")
        assert "Traceback" not in err and not out.exists()

    def test_integer_beyond_float_range_is_config_error(self, data_dir, tmp_path, capsys):
        # 10**400 does not fit a float
        cfg = tmp_path / "fit.json"
        cfg.write_text('{"data": %s, "setting": {"route": "si_anchor"}, "draws": 1%s}'
                       % (json.dumps(str(data_dir / "null.csv")), "0" * 400), encoding="utf-8")
        out = tmp_path / "fit.out"
        assert cli.main(["fit", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config key 'draws' must be an integer in [1, "
                              "9.22337e+18], got 1000")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("key", ["draws", "mediator_draws"])
    def test_integer_past_sys_maxsize_names_its_key(self, data_dir, tmp_path, capsys, key):
        # 300 nines fit a float, so the key's bound at sys.maxsize refuses them
        # before the draw records are mapped; the message names the key and
        # repeats only the head of the value
        cfg = tmp_path / "fit.json"
        cfg.write_text('{"data": %s, "setting": {"route": "benchmark_raw"}, "%s": %s}'
                       % (json.dumps(str(data_dir / "bench.csv")), key, "9" * 300),
                       encoding="utf-8")
        out = tmp_path / "fit.out"
        assert cli.main(["fit", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key '{key}' must be an integer in [1, ")
        assert err.rstrip().endswith("(300 characters)") and len(err) < 200
        assert "Traceback" not in err and not out.exists()

    def test_overflowing_outcome_is_one_line_numerical_failure(self, tmp_path, capsys):
        # finite outcomes whose squares overflow (the README spec at n = 2000,
        # seed 11, y times 1e152): the conjugate update refuses the scale, and no
        # numpy RuntimeWarning (an error in this suite) reaches stderr
        data, _ = generate_synthetic(dataclasses.replace(BENCH_SPEC, n=2000), seed=11)
        scaled = Dataset(data.treatment, data.mediator, data.outcome * 1e152,
                         data.covariates, data.benchmark)
        save_dataset(scaled, str(tmp_path / "over.csv"))
        cfg = write_config(tmp_path, "fit.json", {
            "data": str(tmp_path / "over.csv"), "setting": {"route": "si_anchor"},
            "draws": 5, "burn_in": 0, "seed": 7})
        out = tmp_path / "fit.out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numerical failure: posterior scale degenerated to nan\n"
        assert not out.exists()

    def test_missing_data_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "fit.json", {
            "data": str(tmp_path / "absent.csv"),
            "setting": {"route": "si_anchor"}, **FAST})
        assert cli.main(["fit", "--config", cfg]) == 2
        assert "cannot read data" in capsys.readouterr().err

    def test_non_utf8_data_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("treat,m,y\n0,1.0,caf\u00e9\n".encode("latin-1"))
        cfg = write_config(tmp_path, "fit.json", {
            "data": str(path), "setting": {"route": "si_anchor"}, **FAST})
        assert cli.main(["fit", "--config", cfg]) == 2
        assert "cannot read data" in capsys.readouterr().err

    def test_unwritable_out_path(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, "fit.json", {
            "data": str(data_dir / "null.csv"),
            "setting": {"route": "si_anchor"}, **FAST})
        out = tmp_path / "no-such-dir" / "fit.json"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_config_without_data_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "fit.json", {"setting": {"route": "si_anchor"}})
        assert cli.main(["fit", "--config", cfg]) == 2
        assert "data" in capsys.readouterr().err

    def test_unknown_setting_key(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, "fit.json", {
            "data": str(data_dir / "null.csv"),
            "setting": {"route": "si_anchor", "slope": 2.0}, **FAST})
        assert cli.main(["fit", "--config", cfg]) == 2
        assert "slope" in capsys.readouterr().err

    def test_benchmark_route_needs_benchmark_column(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, "fit.json", {
            "data": str(data_dir / "null.csv"),
            "setting": {"route": "benchmark_raw"}, **FAST})
        assert cli.main(["fit", "--config", cfg]) == 2
        capsys.readouterr()

    def test_numerical_failure_exit_code(self, data_dir, tmp_path, capsys,
                                         monkeypatch):
        def boom(*a, **kw):
            raise NumericalFailure("synthetic failure for the exit-code contract")

        monkeypatch.setattr(gcomp, "run", boom)   # cmd_fit imports run when it runs
        cfg = write_config(tmp_path, "fit.json", {
            "data": str(data_dir / "null.csv"),
            "setting": {"route": "si_anchor"}, **FAST})
        assert cli.main(["fit", "--config", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("shape1", ["1e999", '"2"', "true", "0", "-1", "null"])
    def test_bad_beta_shape_is_config_error(self, data_dir, tmp_path, capsys, shape1):
        cfg = tmp_path / "fit.json"
        # written as text so that 1e999 reaches the parser as an overflowing literal
        cfg.write_text(
            '{"data": %s, "setting": {"route": "benchmark_raw", "delta_prior": '
            '{"kind": "beta", "shape1": %s, "shape2": 2.0}}}'
            % (json.dumps(str(data_dir / "bench.csv")), shape1), encoding="utf-8")
        out = tmp_path / "fit.out"
        assert cli.main(["fit", "--config", str(cfg), "--out", str(out)]) == 2
        assert "delta_prior key 'shape1' must be a number > 0 (finite)" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_summary_is_numerical_failure(self, data_dir, tmp_path, capsys,
                                                     monkeypatch):
        def nan_theta(*args, _run=gcomp.run, **kwargs):
            result = _run(*args, **kwargs)
            result.records["theta"][0] = np.nan
            return result

        monkeypatch.setattr(gcomp, "run", nan_theta)
        cfg = write_config(tmp_path, "fit.json", {
            "data": str(data_dir / "null.csv"), "setting": {"route": "si_anchor"}, **FAST})
        out = tmp_path / "fit.out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 3
        assert "non-finite value nan at summary.theta.mean" in capsys.readouterr().err
        assert not out.exists()

    def test_linalg_error_exit_code(self, data_dir, tmp_path, capsys, monkeypatch):
        def boom(*a, **kw):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(gcomp, "run", boom)   # cmd_fit imports run when it runs
        cfg = write_config(tmp_path, "fit.json", {
            "data": str(data_dir / "null.csv"),
            "setting": {"route": "si_anchor"}, **FAST})
        assert cli.main(["fit", "--config", cfg]) == 3
        capsys.readouterr()


MIXED = [
    {"label": "raw", "setting": {"route": "benchmark_raw"}},
    {"label": "rank-beta", "setting": {
        "route": "benchmark_rank",
        "delta_prior": {"kind": "beta", "shape1": 2.0, "shape2": 5.0}}},
    {"label": "raw-upper-co", "setting": {
        "route": "benchmark_raw", "comonotone": True,
        "delta_prior": {"kind": "endpoint_upper"}}},
    {"label": "rank-cap", "setting": {
        "route": "benchmark_rank", "gamma_cap": 1.2, "lambda0": 1.5, "lambda1": 1.5}},
    {"label": "raw-pooled", "setting": {"route": "benchmark_raw", "pooled_gamma": True}},
]


class TestSweep:
    def sweep_cfg(self, data_dir, **extra):
        cfg = {"data": str(data_dir / "bench.csv"), "axis": "kappa",
               "grid": [1.0, 1.5, 2.0, 3.0],
               "overlays": [
                   {"label": "raw", "setting": {"route": "benchmark_raw"}},
                   {"label": "raw-amplified",
                    "setting": {"route": "benchmark_raw", "lambda0": 1.5,
                                "lambda1": 1.5}},
               ], **FAST}
        cfg.update(extra)
        return cfg

    def test_table_shape_and_monotone_width(self, data_dir, tmp_path):
        cfg = write_config(tmp_path, "sweep.json", self.sweep_cfg(data_dir))
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
        assert len(lines) == 1 + 2 * 4
        rows = [line.split(",") for line in lines[1:]]
        for label in ("raw", "raw-amplified"):
            widths = [float(r[5]) for r in rows if r[0] == label]
            assert len(widths) == 4
            assert widths == sorted(widths)
            centers = {r[4] for r in rows if r[0] == label}
            assert len(centers) == 1

    def test_amplified_overlay_is_wider(self, data_dir, tmp_path):
        cfg = write_config(tmp_path, "sweep.json", self.sweep_cfg(data_dir))
        out = tmp_path / "sweep.csv"
        cli.main(["sweep", "--config", cfg, "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        raw = {r[2]: float(r[5]) for r in rows if r[0] == "raw"}
        amp = {r[2]: float(r[5]) for r in rows if r[0] == "raw-amplified"}
        assert all(amp[v] >= raw[v] for v in raw)

    def test_residual_g_axis_zero_row(self, data_dir, tmp_path):
        cfg = write_config(tmp_path, "sweep.json", {
            "data": str(data_dir / "null.csv"), "axis": "g",
            "grid": [1.0, 1.5, 2.0],
            "setting": {"route": "residual_budget", "k0": 0.5, "k1": 0.5},
            **FAST})
        out = tmp_path / "g.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows[0][2] == "1" and rows[0][5] == "0"
        assert float(rows[-1][5]) > 0.0

    def test_byte_reproducible(self, data_dir, tmp_path):
        cfg = write_config(tmp_path, "sweep.json", self.sweep_cfg(data_dir))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["sweep", "--config", cfg, "--out", str(a)])
        cli.main(["sweep", "--config", cfg, "--threads", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_axis_required(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep.json", {
            "data": str(data_dir / "bench.csv"), "grid": [1.0],
            "setting": {"route": "benchmark_raw"}, **FAST})
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert "axis" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [["x"], [1.0, True], [], 2.0])
    def test_non_numeric_grid(self, data_dir, tmp_path, capsys, grid):
        cfg = write_config(tmp_path, "sweep.json", {
            "data": str(data_dir / "bench.csv"), "axis": "kappa", "grid": grid,
            "setting": {"route": "benchmark_raw"}, **FAST})
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert "'grid' must be a non-empty list of numbers" in capsys.readouterr().err

    def test_mixed_overlays_byte_identical_across_threads(self, data_dir, tmp_path):
        cfg = write_config(tmp_path, "sweep.json", self.sweep_cfg(data_dir, overlays=MIXED))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep", "--config", cfg, "--threads", "1", "--out", str(a)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--threads", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 1 + len(MIXED) * 4

    def test_each_overlay_matches_its_own_sweep(self, data_dir, tmp_path):
        cfg = write_config(tmp_path, "sweep.json", self.sweep_cfg(data_dir, overlays=MIXED))
        together = tmp_path / "all.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(together)]) == 0
        expected = [",".join(cli.SWEEP_COLUMNS)]
        for i, overlay in enumerate(MIXED):
            cfg = write_config(tmp_path, f"one{i}.json",
                               self.sweep_cfg(data_dir, overlays=[overlay]))
            alone = tmp_path / f"one{i}.csv"
            assert cli.main(["sweep", "--config", cfg, "--out", str(alone)]) == 0
            expected += alone.read_text().splitlines()[1:]
        assert together.read_text().splitlines() == expected

    @pytest.mark.parametrize("overlays,extra,message", [
        ([{"lable": "raw", "setting": {"route": "benchmark_raw"}}], {},
         "unknown overlays[0] keys: ['lable']"),
        ([{"setting": {"route": "benchmark_raw"}},
          {"setting": {"route": "benchmark_raw", "lambda0": 1.5}}], {},
         "duplicate overlay label 'benchmark_raw'"),
        ([{"label": "a", "setting": {"route": "benchmark_raw"}},
          {"label": "a", "setting": {"route": "benchmark_rank"}}], {},
         "duplicate overlay label 'a'"),
        ([{"label": 3, "setting": {"route": "benchmark_raw"}}], {},
         "overlays[0] key 'label' must be a string, got 3"),
        # a top-level setting beside overlays would otherwise be dropped silently
        ([{"setting": {"route": "benchmark_raw"}}],
         {"setting": {"route": "residual_budget"}},
         "give exactly one of config keys 'setting' and 'overlays'"),
    ], ids=["overlays0-unknown overlay keys: ['lable']",
            "overlays1-duplicate overlay label 'benchmark_raw'",
            "overlays2-duplicate overlay label 'a'",
            "overlays3-overlay 'label' must be a string",
            "overlays4-both setting and overlays"])
    def test_ambiguous_or_unknown_overlay(self, data_dir, tmp_path, capsys,
                                          overlays, extra, message):
        cfg = write_config(tmp_path, "sweep.json",
                           self.sweep_cfg(data_dir, overlays=overlays, **extra))
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert message in capsys.readouterr().err

    def test_bad_later_overlay_fails_before_any_draw(self, data_dir, tmp_path, capsys,
                                                     monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a draw ran before every overlay was checked")

        monkeypatch.setattr(gcomp._Engine, "run_draw", fail)
        for bad in ({"route": "residual_budget"}, {"route": "benchmark_rank", "slope": 1}):
            overlays = [{"label": "raw", "setting": {"route": "benchmark_raw"}},
                        {"label": "bad", "setting": bad}]
            cfg = write_config(tmp_path, "sweep.json",
                               self.sweep_cfg(data_dir, overlays=overlays))
            assert cli.main(["sweep", "--config", cfg]) == 2
            capsys.readouterr()

    def test_nan_setting_value_names_the_key(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep.json", self.sweep_cfg(data_dir, overlays=[
            {"setting": {"route": "benchmark_raw", "lambda0": float("nan")}}]))
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert "setting key 'lambda0' must be a number >= 1 (finite), got nan" in capsys.readouterr().err

    def test_non_finite_column_is_numerical_failure(self, data_dir, tmp_path, capsys,
                                                    monkeypatch):
        def inf_row(*args, _sweep=gcomp.sweep, **kwargs):
            results = _sweep(*args, **kwargs)
            results[1].rows[2]["nie_upper"] = float("inf")
            return results

        monkeypatch.setattr(gcomp, "sweep", inf_row)
        cfg = write_config(tmp_path, "sweep.json", self.sweep_cfg(data_dir))
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "non-finite value inf at overlay 'raw-amplified', kappa = 2, " \
               "column nie_upper" in err
        assert not out.exists()

    def test_infinite_grid_value_is_written(self, data_dir, tmp_path):
        # json.dumps spells the infinite grid point as Infinity, which the
        # config parser reads back as +inf
        cfg = write_config(tmp_path, "sweep.json",
                           self.sweep_cfg(data_dir, grid=[1.0, float("inf")]))
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[2] for r in rows] == ["1", "inf", "1", "inf"]
        assert all(np.isfinite(float(v)) for r in rows for v in r[3:])

    def test_axis_route_mismatch(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep.json", {
            "data": str(data_dir / "bench.csv"), "axis": "k", "grid": [0.0, 0.5],
            "setting": {"route": "benchmark_raw"}, **FAST})
        assert cli.main(["sweep", "--config", cfg]) == 2
        capsys.readouterr()

    def test_si_anchor_takes_no_axis(self, data_dir, tmp_path, capsys):
        # a k sweep of the anchor used to write a table of zero half-widths
        cfg = write_config(tmp_path, "sweep.json", {
            "data": str(data_dir / "null.csv"), "axis": "k", "grid": [0.0, 0.5],
            "setting": {"route": "si_anchor"}, **FAST})
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "axis 'k' does not apply to route 'si_anchor'" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_passes_and_reproduces(self, tmp_path):
        cfg = write_config(tmp_path, "verify.json", {"n_models": 8, "seed": 4})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["verify", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["verify", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["passed"] is True
        assert payload["sharpness"]["points"] == 15
        assert payload["fuzz"]["failures"] == {}
        worst = payload["fuzz"]["worst"]
        assert set(worst) == {*payload["fuzz"]["stats"], "eta_gap_min_any"}
        assert all(0 <= entry["model"] < 8 for entry in worst.values())

    def test_statistics_read_at_rounding_level(self, tmp_path, capsys):
        # the pass thresholds (1e-10) cannot see a 1000-fold loss of precision;
        # 1e-14 can: the worst entry on this corpus and the default sharpness
        # grid reads 8.9e-16 under OpenBLAS's SkylakeX, Haswell and Prescott
        # kernels. eta_gap_min_any is reported, never asserted
        cfg = write_config(tmp_path, "verify.json", {"n_models": 1000, "seed": 90210})
        assert cli.main(["verify", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        readings = {**payload["fuzz"]["stats"],
                    "sharpness.max_abs_gap": payload["sharpness"]["max_abs_gap"]}
        assert {name: v for name, v in readings.items() if not abs(v) <= 1e-14} == {}

    def test_sharpness_grid_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "verify.json", {
            "gammas": [2.0], "etas": [1.0], "n_models": 4, "seed": 4})
        assert cli.main(["verify", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sharpness"]["points"] == 1

    @pytest.mark.parametrize("name", [*CHECK_THRESHOLDS, "eta_gap_min_any"])
    def test_nan_statistic_exits_4_naming_it(self, tmp_path, capsys, monkeypatch, name):
        wrapped, reported = nan_after_first(oracle.check_models, name)
        monkeypatch.setattr(oracle, "check_models", wrapped)
        cfg = write_config(tmp_path, "verify.json", {"n_models": 8, "seed": 1})
        out = tmp_path / "verify.out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 4
        i = reported[1]
        assert (f"verification failure: non-finite check statistic: fuzz {name} = nan "
                f"(model {i}, {oracle.MODEL_KINDS[i % 4]})") in capsys.readouterr().err
        assert not out.exists()

    def test_nan_sharpness_gap_exits_4_naming_it(self, tmp_path, capsys, monkeypatch):
        exact = oracle.check_bound_and_sharpness

        def nan_at_one_point(gamma, eta):
            plus, minus, bound = exact(gamma, eta)
            return np.where((gamma == 2.0) & (eta == 1.0), np.nan, plus), minus, bound

        monkeypatch.setattr(oracle, "check_bound_and_sharpness", nan_at_one_point)
        cfg = write_config(tmp_path, "verify.json", {"n_models": 4, "seed": 4})
        assert cli.main(["verify", "--config", cfg]) == 4
        captured = capsys.readouterr()
        assert "non-finite check statistic: sharpness max_abs_gap = nan" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key,value", [("gammas", ["abc"]), ("gammas", 5),
                                           ("etas", [None]), ("etas", "1.0")])
    def test_non_numeric_sharpness_grid(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, "verify.json", {key: value, "n_models": 4})
        assert cli.main(["verify", "--config", cfg]) == 2
        assert f"'{key}' must be a non-empty list of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("n_models", [0, -1])
    def test_no_models_is_config_error(self, tmp_path, capsys, n_models):
        cfg = write_config(tmp_path, "verify.json", {"n_models": n_models})
        out = tmp_path / "verify.out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert f"key 'n_models' must be an integer >= 1, got {n_models}" in capsys.readouterr().err
        assert not out.exists()

    def test_corruption_self_test_fails_loudly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "verify.json", {
            "n_models": 4, "seed": 4, "inject_corrupt": True})
        assert cli.main(["verify", "--config", cfg]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        self_test = payload["self_test"]
        assert self_test["detected"] is True
        assert self_test["bound_gap"] == 0.25
        assert set(self_test["model"]) == {"p_x", "p_u", "p_m", "psi", "groups"}


LAZY = ["numpy.ma", "bridgebound.oracle", "concurrent.futures", "logging",
        "multiprocessing"]
# lets every requested draw worker fork, however many CPUs the host has
_ANY_CPUS = "import bridgebound.gcomp; bridgebound.gcomp._available_cpus = lambda: 64\n"
# runs one command (argv[2:]) and writes its exit code and which of the listed
# modules it loaded to argv[1]
_REPORT = """
import json, sys
from bridgebound.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump([code, [m for m in %r if m in sys.modules]], fh)
"""
_FOOTPRINT = _ANY_CPUS + _REPORT % (LAZY,)
# the posterior engine and the oracle, by module
ENGINE = ["bridgebound." + name for name in ("gcomp", "calibration", "data", "linear_bayes",
                                             "bridge", "_kernels", "oracle")]


def run_fresh(script, *args):
    """Run a Python script in a fresh interpreter that imports this checkout,
    with stdout block-buffered into a pipe, as in a plain run."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=300, env=env)


def imports_of(data_dir, tmp_path, command, cfg, threads="1", script=_FOOTPRINT):
    """[exit code, the modules loaded] of one command in a fresh interpreter,
    of LAZY unless script lists others."""
    if command in ("fit", "sweep"):
        cfg = {"data": str(data_dir / "bench.csv"), **FAST, **cfg}
    path = write_config(tmp_path, "cfg.json", cfg)
    argv = [command, "--config", path, "--out", str(tmp_path / "out")]
    if command in ("fit", "sweep"):
        argv += ["--threads", threads]
    report = tmp_path / "report.json"
    proc = run_fresh(script, str(report), *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text())


@pytest.mark.parametrize("command,cfg,loads", [
    ("fit", {"setting": {"route": "si_anchor"}}, []),
    ("fit", {"setting": {"route": "benchmark_raw"}}, []),
    ("sweep", {"axis": "kappa", "grid": [1.0, 2.0],
               "overlays": [{"label": "raw", "setting": {"route": "benchmark_raw"}},
                            {"label": "rank", "setting": {"route": "benchmark_rank"}}]}, []),
    ("simulate", {"spec": {"n": 40, "p": 1, "beta_m": [0.5, 1.0, 0.4]}}, []),
    ("verify", {"n_models": 4, "seed": 4}, ["bridgebound.oracle"]),
])
def test_command_imports_only_what_it_runs(data_dir, tmp_path, command, cfg, loads):
    # numpy.ma (np.quantile's first call) and the exact oracle stay unimported
    # unless the command runs them
    assert imports_of(data_dir, tmp_path, command, cfg) == [0, loads]


@pytest.mark.parametrize("command,cfg,loads", [
    ("simulate", {"spec": {"n": 40, "p": 1, "beta_m": [0.5, 1.0, 0.4]}}, ["bridgebound.data"]),
    ("verify", {"n_models": 4, "seed": 4}, ["bridgebound.oracle"]),
])
def test_command_loads_no_engine_it_does_not_run(data_dir, tmp_path, command, cfg, loads):
    # without _ANY_CPUS, which imports gcomp: simulate needs the data layer
    # alone, and verify the oracle alone
    script = _REPORT % (ENGINE,)
    assert imports_of(data_dir, tmp_path, command, cfg, script=script) == [0, loads]


def test_package_names_resolve_on_first_access():
    import bridgebound
    assert set(bridgebound._HOME) == set(bridgebound.__all__)
    for name in bridgebound.__all__:
        home = importlib.import_module("bridgebound." + bridgebound._HOME[name])
        assert getattr(bridgebound, name) is getattr(home, name), name
    assert set(bridgebound.__all__) <= set(dir(bridgebound))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        bridgebound.no_such_name
    # a fresh import loads no submodule; a star import resolves every name
    proc = run_fresh(
        "import sys\n"
        "import bridgebound\n"
        "print(sorted(m for m in sys.modules if m.startswith('bridgebound.')))\n"
        "names = {}\n"
        "exec('from bridgebound import *', names)\n"
        "print(sorted(set(bridgebound.__all__) - set(names)))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_forked_workers_import_no_pool(data_dir, tmp_path):
    # the draw workers are plain forks: no process or thread pool, nor the
    # logging these pull in
    cfg = {"setting": {"route": "benchmark_raw"}}
    assert imports_of(data_dir, tmp_path, "fit", cfg, threads="2") == [0, []]


class TestForkedDraws:
    @pytest.fixture(autouse=True)
    def every_worker_forks(self, monkeypatch):
        monkeypatch.setattr(gcomp, "_available_cpus", lambda: 64)
        yield
        # no worker is left, running or unreaped
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_too_large_for_memory_as_at_one_thread(self, data_dir, tmp_path, capsys):
        # the envelope points are allocated in the first draw, the draw records
        # before any worker forks
        for edit in ({"mediator_draws": 10**12}, {"draws": 10**15}):
            cfg = write_config(tmp_path, "cfg.json", {
                "data": str(data_dir / "bench.csv"), "setting": {"route": "benchmark_raw"},
                **FAST, **edit})
            out = tmp_path / "out"
            errs = []
            for threads in ("1", "2"):
                assert cli.main(["fit", "--config", cfg, "--threads", threads,
                                 "--out", str(out)]) == 2
                errs.append(capsys.readouterr().err)
            assert errs[0] == errs[1]
            assert errs[0].startswith("config error: draws, mediator_draws or the sweep grid "
                                      "size is too large for memory")
            assert not out.exists()

    def test_fit_to_stdout_prints_one_document(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "data": str(data_dir / "bench.csv"), "setting": {"route": "benchmark_raw"}, **FAST})
        assert cli.main(["fit", "--config", cfg, "--threads", "1"]) == 0
        expected = capsys.readouterr().out
        # the first line is still in the stdout buffer when the workers fork; a
        # worker that flushed it on exit would print it twice
        script = _ANY_CPUS + (
            "import os, sys\nfrom bridgebound.cli import main\n"
            "sys.stdout.write('first line\\n')\ncode = main(sys.argv[1:])\n"
            "try:\n    os.waitpid(-1, os.WNOHANG)\nexcept ChildProcessError:\n"
            "    sys.exit(code)\nsys.exit('a draw worker was left')\n")
        proc = run_fresh(script, "fit", "--config", cfg, "--threads", "2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "first line\n" + expected
        json.loads(expected)   # one JSON document and nothing else


@pytest.mark.parametrize("command,value", [("verify", "2"), ("simulate", "-3")])
def test_threads_flag_only_on_fit_and_sweep(capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--threads", value])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()


def test_check_refuses_a_non_object():
    for raw in ([1, 2], "kappa", None):
        message = f"setting must be a JSON object, got {raw!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            check("setting", raw, SETTING_KEYS)


def test_integer_beyond_float_range_fits_no_number_key():
    # float(10**400) overflows; the key refuses it rather than raising
    for key in (Key("int", (1, math.inf)), Key("number", inf=True)):
        assert not _fits("draws", 10**400, key) and not _fits("draws", -10**400, key)
        assert _fits("draws", 10**300, key)
    with pytest.raises(ConfigError, match=r"^run key 'draws' must be an integer in \[1, "
                                          r"9\.22337e\+18\], got 1000"):
        check("run", {"draws": 10**400}, RUN_KEYS)


def test_count_keys_end_at_sys_maxsize_exactly():
    # sys.maxsize rounds up to 2**63 as a float; an integer key compares exactly
    for name in ("draws", "mediator_draws"):
        assert check("run", {name: sys.maxsize}, RUN_KEYS) == {name: sys.maxsize}
        with pytest.raises(ConfigError, match=f"^run key '{name}' must be an integer in "):
            check("run", {name: sys.maxsize + 1}, RUN_KEYS)


def test_take_int_rejects_bool_and_float():
    table = {"draws": Key("int")}
    with pytest.raises(ConfigError, match="'draws' must be an integer, got True"):
        check("config", {"draws": True}, table)
    with pytest.raises(ConfigError, match="'draws' must be an integer, got 2.5"):
        check("config", {"draws": 2.5}, table)
    assert check("config", {}, table) == {}


def test_take_floats_requires_numbers():
    table = {"grid": Key(["number"])}
    assert check("config", {"grid": [1, 2.5]}, table) == {"grid": [1, 2.5]}
    assert check("config", {}, table) == {}
    for bad in (["1.5"], [True], [], 1.5, None):
        with pytest.raises(ConfigError, match="'grid' must be a non-empty list of numbers"):
            check("config", {"grid": bad}, table)
    with pytest.raises(ConfigError, match="config key 'grid' is required"):
        check("config", {}, {"grid": Key(["number"], required=True)})


@pytest.mark.parametrize("command,edit,flags,key", [
    ("fit", {"setting": {"route": "residual_budget", "k0": True}}, [], "'k0'"),
    ("fit", {"data": "bench.csv", "setting": {"route": "benchmark_raw", "lambda0": True}}, [],
     "'lambda0'"),
    ("fit", {"data": "bench.csv", "setting": {"route": "benchmark_raw", "gamma_cap": True}}, [],
     "'gamma_cap'"),
    ("fit", {"drwas": 100}, [], "'drwas'"),
    ("fit", {"threads": 0}, [], "'threads'"),
    ("sweep", {}, ["--threads", "-4"], "'threads'"),
    ("fit", {"schema": {"treatment": "treat", "mediator": "m", "outcome": "y",
                        "covariates": 5}}, [], "'covariates'"),
    ("fit", {"schema": {"treatment": "treat", "mediator": "m", "outcome": "y",
                        "covariates": {"x1": 0}}}, [], "'covariates'"),
    ("simulate", {"spec": {"n": 60, "p": 0, "beta_m": [0.0, 1.0],
                           "benchmark": {"low": -math.inf}}}, [], "'low'"),
    ("simulate", {"spec": {"n": 60, "p": 0, "beta_m": [0.0, 1.0],
                           "benchmark": {"low": -1e308, "high": 1e308}}}, [], "high="),
    ("fit", {}, ["--threads", "257"], "'threads'"),
    # too large for memory; each fails at its first allocation: the draw records
    # before any draw runs, the benchmark envelope points in the first draw. Past
    # what numpy can index, the records' mapping and the engine refuse them
    ("fit", {"draws": 10**15}, [], "too large for memory"),
    ("fit", {"data": "bench.csv", "setting": {"route": "benchmark_raw"},
             "mediator_draws": 10**12}, [], "too large for memory"),
    ("fit", {"draws": 10**18}, [], "too large for memory"),
    ("fit", {"data": "bench.csv", "setting": {"route": "benchmark_raw"},
             "mediator_draws": 10**18}, [], "too large for memory"),
    # a simulated dataset too large for memory, at its first allocation and past
    # what numpy can index
    ("simulate", {"spec": {"n": 10**15, "p": 1, "beta_m": [0, 1, 0.5]}}, [], "'n'"),
    ("simulate", {"spec": {"n": 10**20, "p": 1, "beta_m": [0, 1, 0.5]}}, [], "'n'"),
])
def test_newly_rejected_inputs_name_their_key(data_dir, tmp_path, capsys,
                                              command, edit, flags, key):
    cfg = {"fit": {"data": "null.csv", "setting": {"route": "si_anchor"}},
           "sweep": {"data": "null.csv", "axis": "k", "grid": [0.5],
                     "setting": {"route": "residual_budget"}},
           "simulate": {}}[command]
    cfg.update(FAST if command != "simulate" else {}, **edit)
    if "data" in cfg:
        cfg["data"] = str(data_dir / cfg["data"])
    out = tmp_path / "out"
    # json.dumps spells -inf as the -Infinity literal, as a hand-written config may
    argv = [command, "--config", write_config(tmp_path, "cfg.json", cfg), "--out", str(out)]
    assert cli.main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def overflow_csv(tmp_path_factory):
    """Benchmark study whose records stay finite under lambda0 = 1e307 but whose
    sums overflow."""
    spec = SyntheticSpec(n=60, p=1, beta_m=(0.5, 1.2, 0.8), c0=1.0, c_a=0.7, c_m=0.9,
                         x_scale=0.6, benchmark=BenchmarkSpec(low=0.0, high=2.0,
                                                              coef_m=0.5, coef_y=0.4))
    path = tmp_path_factory.mktemp("overflow") / "study.csv"
    save_dataset(generate_synthetic(spec, seed=3)[0], str(path))
    return str(path)


OVERFLOW_RUN = {"draws": 200, "mediator_draws": 2, "seed": 3}


@pytest.mark.parametrize("command,edit,where", [
    ("fit", {"setting": {"route": "benchmark_raw", "lambda0": 1e307}},
     "-inf at summary.nde_lower.mean"),
    ("fit", {"setting": {"route": "benchmark_raw", "lambda0": 1.7e308}},
     "nan at summary.delta_bar_0.mean"),
    ("sweep", {"axis": "lambda", "grid": [1.0, 1e307],
               "overlays": [{"setting": {"route": "benchmark_raw"}}]},
     "inf at overlay 'benchmark_raw', lambda = 9.9999999999999999e+306, column half_width"),
])
def test_overflowing_sums_are_numerical_failures(overflow_csv, tmp_path, capsys,
                                                 command, edit, where):
    cfg = {"data": overflow_csv, **OVERFLOW_RUN, **edit}
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, "cfg.json", cfg), "--out", str(out)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert f"numerical failure: non-finite value {where}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_huge_finite_g_matches_infinite_g(overflow_csv, tmp_path):
    outs = []
    for g0 in (1e308, math.inf):
        cfg = {"data": overflow_csv, **OVERFLOW_RUN,
               "setting": {"route": "residual_budget", "k0": 1.0, "g0": g0}}
        outs.append(tmp_path / f"fit-{g0}.json")
        assert cli.main(["fit", "--config", write_config(tmp_path, "cfg.json", cfg),
                         "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _table_paths(table, prefix=()):
    """Every key path of a table, nested objects and list items included."""
    for name, key in table.items():
        yield prefix + (name,)
        kind = key.kind[0] if isinstance(key.kind, list) else key.kind
        if isinstance(kind, dict):
            yield from _table_paths(kind, prefix + ((name, 0) if isinstance(key.kind, list)
                                                    else (name,)))


# small values only: no example may start many threads or allocate a large array
FUZZ_VALUES = ["1", True, None, [], {}, -1, 0, 0.5, 1, 2, 1e308, -1e308,
               math.nan, math.inf, -math.inf]
_DELETE = "<delete>"


def _fuzz_base(data_dir):
    bench = str(data_dir / "bench.csv")
    schema = {"treatment": "treat", "mediator": "m", "outcome": "y",
              "covariates": ["x1", "x2"], "benchmark": "w"}
    run = {"draws": 2, "burn_in": 1, "mediator_draws": 2, "seed": 3, "threads": 1}
    setting = {"route": "benchmark_raw", "kappa0": 1.5, "lambda1": 1.2, "k0": 0.0, "g0": 1.0,
               "delta_prior": {"kind": "beta", "shape1": 2.0, "shape2": 2.0},
               "comonotone": False, "pooled_gamma": False, "gamma_cap": 5.0}
    return {
        "fit": {"data": bench, "schema": schema, "setting": setting, **run},
        "sweep": {"data": bench, "schema": schema, "axis": "kappa", "grid": [1.0, 2.0],
                  "overlays": [{"label": "a", "setting": setting},
                               {"label": "b", "setting": {"route": "benchmark_rank"}}],
                  **run},
        "verify": {"gammas": [2.0], "etas": [1.0], "n_models": 2, "inject_corrupt": False,
                   "seed": 3},
        "simulate": {"spec": {"n": 40, "p": 1, "beta_m": [0.5, 1.0, 0.3], "c0": 0.1,
                              "c_a": 0.2, "c_m": 0.3, "x_scale": 0.4, "sigma_m": 1.0,
                              "sigma_y": 1.0, "treat_prob": 0.5, "confounder_strength": 0.1,
                              "benchmark": {"low": 0.0, "high": 2.0, "coef_m": 0.5,
                                            "coef_y": 0.4}},
                     "truth_out": "truth.json", "seed": 3},
    }


FUZZ_TABLES = {"fit": cli.FIT_KEYS, "sweep": cli.SWEEP_KEYS, "verify": cli.VERIFY_KEYS,
               "simulate": cli.SIMULATE_KEYS}
FUZZ_EDITS = {command: st.lists(st.tuples(st.sampled_from(list(_table_paths(table))),
                                          st.sampled_from(FUZZ_VALUES + [_DELETE])),
                                min_size=1, max_size=2)
              for command, table in FUZZ_TABLES.items()}


def _apply(base: dict, edits) -> dict:
    """A copy of base with each (path, value) edit made; edits under a missing parent drop."""
    cfg = copy.deepcopy(base)
    for path, value in edits:
        parent = cfg
        try:
            for step in path[:-1]:
                parent = parent[step]
        except (KeyError, IndexError, TypeError):
            continue
        if not isinstance(parent, dict):
            continue
        if value == _DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    return cfg


@pytest.mark.parametrize("command", sorted(FUZZ_TABLES))
def test_cli_fuzz_exits_cleanly(data_dir, monkeypatch, command):
    """Mutate the type or value of one or two table keys of a small valid config."""
    base = _fuzz_base(data_dir)[command]
    # a deleted run key falls back to its default; keep those small too
    monkeypatch.setattr(gcomp, "DEFAULT_DRAWS", 2)
    monkeypatch.setattr(gcomp, "DEFAULT_MEDIATOR_DRAWS", 2)

    @settings(derandomize=True, max_examples=80)
    @given(edits=FUZZ_EDITS[command])
    def one(edits):
        home = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                Path("cfg.json").write_text(json.dumps(_apply(base, edits)), encoding="utf-8")
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main([command, "--config", "cfg.json", "--out", "out"])
                written = {p.name: p.read_text(encoding="utf-8") for p in Path(".").iterdir()
                           if p.name != "cfg.json"}
            finally:
                os.chdir(home)
        assert code in (0, 2, 3, 4), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        if command == "sweep" and "out" in written:
            rows = list(csv.reader(io.StringIO(written["out"])))[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row[3:])
        elif command == "simulate":
            written.pop("out", None)  # the dataset CSV
            written["stdout"] = stdout.getvalue()
        for name, text in written.items():
            if command != "sweep" and text:
                json.loads(text, parse_constant=_reject_constant)

    if command == "simulate":
        # finite bounds whose width overflows
        one = example(edits=[(("spec", "benchmark", "low"), -1e308),
                             (("spec", "benchmark", "high"), 1e308)])(one)
    one()


def test_readme_lists_every_config_key():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Config keys", 1)[1].split("\n## ")[0]
    tables = [cli.FIT_KEYS, cli.SWEEP_KEYS, cli.VERIFY_KEYS, cli.SIMULATE_KEYS,
              cli.OVERLAY_KEYS, SETTING_KEYS, PRIOR_KEYS, SCHEMA_KEYS, SPEC_KEYS,
              BENCHMARK_KEYS]
    missing = sorted({name for table in tables for name in table} - set(
        re.findall(r"`([a-z_0-9]+)`", section)))
    assert not missing
