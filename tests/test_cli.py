import json
import re

import numpy as np
import pytest

import bridgebound.cli as cli
import bridgebound.gcomp as gcomp
from bridgebound.data import save_dataset
from bridgebound.errors import ConfigError, NumericalFailure
from conftest import BENCH_SPEC, NULL_SPEC
from bridgebound.data import generate_synthetic


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    bench, _ = generate_synthetic(BENCH_SPEC, seed=11)
    null, _ = generate_synthetic(NULL_SPEC, seed=23)
    save_dataset(bench, str(root / "bench.csv"))
    save_dataset(null, str(root / "null.csv"))
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
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


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

        monkeypatch.setattr(cli, "run", boom)
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
        assert "delta prior shape1 must be a finite number > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_summary_is_numerical_failure(self, data_dir, tmp_path, capsys,
                                                     monkeypatch):
        def nan_theta(*args, **kwargs):
            result = gcomp.run(*args, **kwargs)
            result.records["theta"][0] = np.nan
            return result

        monkeypatch.setattr(cli, "run", nan_theta)
        cfg = write_config(tmp_path, "fit.json", {
            "data": str(data_dir / "null.csv"), "setting": {"route": "si_anchor"}, **FAST})
        out = tmp_path / "fit.out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 3
        assert "non-finite value nan at summary.theta.mean" in capsys.readouterr().err
        assert not out.exists()

    def test_linalg_error_exit_code(self, data_dir, tmp_path, capsys, monkeypatch):
        def boom(*a, **kw):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(cli, "run", boom)
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

    @pytest.mark.parametrize("overlays,message", [
        ([{"lable": "raw", "setting": {"route": "benchmark_raw"}}],
         "unknown overlay keys: ['lable']"),
        ([{"setting": {"route": "benchmark_raw"}},
          {"setting": {"route": "benchmark_raw", "lambda0": 1.5}}],
         "duplicate overlay label 'benchmark_raw'"),
        ([{"label": "a", "setting": {"route": "benchmark_raw"}},
          {"label": "a", "setting": {"route": "benchmark_rank"}}],
         "duplicate overlay label 'a'"),
        ([{"label": 3, "setting": {"route": "benchmark_raw"}}],
         "overlay 'label' must be a string"),
    ])
    def test_ambiguous_or_unknown_overlay(self, data_dir, tmp_path, capsys,
                                          overlays, message):
        cfg = write_config(tmp_path, "sweep.json",
                           self.sweep_cfg(data_dir, overlays=overlays))
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
        assert "lambda0 must be >= 1" in capsys.readouterr().err

    def test_non_finite_column_is_numerical_failure(self, data_dir, tmp_path, capsys,
                                                    monkeypatch):
        def inf_row(*args, **kwargs):
            results = gcomp.sweep(*args, **kwargs)
            results[1].rows[2]["nie_upper"] = float("inf")
            return results

        monkeypatch.setattr(cli, "sweep", inf_row)
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

    def test_sharpness_grid_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "verify.json", {
            "gammas": [2.0], "etas": [1.0], "n_models": 4, "seed": 4})
        assert cli.main(["verify", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sharpness"]["points"] == 1

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
        assert f"n_models must be >= 1, got {n_models}" in capsys.readouterr().err
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()


def test_take_int_rejects_bool_and_float():
    with pytest.raises(ConfigError):
        cli._take_int({"draws": True}, "draws", 1)
    with pytest.raises(ConfigError):
        cli._take_int({"draws": 2.5}, "draws", 1)
    assert cli._take_int({}, "draws", 7) == 7


def test_take_floats_requires_numbers():
    assert cli._take_floats({"grid": [1, 2.5]}, "grid", None) == [1.0, 2.5]
    assert cli._take_floats({}, "grid", [3]) == [3.0]
    for bad in (["1.5"], [True], [], 1.5, None):
        with pytest.raises(ConfigError):
            cli._take_floats({"grid": bad}, "grid", None)
    with pytest.raises(ConfigError):
        cli._take_floats({}, "grid", None)
