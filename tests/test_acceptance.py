"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. The exact-model corpus (1000 seeded random models) is shared by the
criteria that read different statistics off the same fuzz report.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bridgebound
from bridgebound.data import SyntheticSpec, generate_synthetic
from bridgebound.gcomp import SensitivitySetting, run, sweep
from bridgebound.linear_bayes import NIGParams, nig_update, sample_draw
from bridgebound.oracle import check_bound_and_sharpness, run_fuzz

from conftest import rng

CORPUS_MODELS = 1000
CORPUS_SEED = 90210


@pytest.fixture(scope="module")
def corpus():
    start = time.perf_counter()
    report = run_fuzz(n_models=CORPUS_MODELS, seed=CORPUS_SEED)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_01_sharpness_attained():
    start = time.perf_counter()
    worst = 0.0
    for gamma in (1.1, 1.5, 2.0, 5.0, 50.0):
        for eta in (0.5, 1.0, 6.0):
            plus, minus, bound = check_bound_and_sharpness(gamma, eta)
            worst = max(worst, abs(plus - bound), abs(minus + bound))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"sharpness gap {worst}"
    assert elapsed < 1.0, f"sharpness grid took {elapsed:.3f}s"


def test_criterion_02_bound_holds_on_corpus(corpus):
    report, elapsed = corpus
    assert report.stats["bound_gap"] <= 1e-10, report.stats
    assert elapsed < 10.0, f"corpus took {elapsed:.1f}s"


def test_criterion_03_balancing_on_corpus(corpus):
    report, _ = corpus
    assert report.stats["balancing_tv"] <= 1e-10, report.stats


def test_criterion_04_projection_on_corpus(corpus):
    report, _ = corpus
    assert report.stats["projection_residual"] <= 1e-10, report.stats


def test_criterion_05_tightening_on_corpus(corpus):
    report, _ = corpus
    assert report.stats["gamma_gap_min"] >= -1e-10, report.stats
    assert report.stats["eta_gap_min_decoupled"] >= -1e-10, report.stats


def test_criterion_06_scalar_reduction(corpus, bench_data, null_data):
    report, _ = corpus
    assert report.stats["scalar_identity"] <= 1e-10, report.stats
    assert report.stats["delta_bar_envelope_gap"] <= 1e-10, report.stats

    # the identity must hold bitwise on every draw the pipeline produces
    runs = [
        run(null_data, SensitivitySetting(), draws=25, burn_in=2,
            mediator_draws_per_unit=8, seed=5),
        run(bench_data, SensitivitySetting(route="benchmark_raw", kappa0=1.5,
                                           kappa1=1.5),
            draws=25, burn_in=2, mediator_draws_per_unit=8, seed=5),
        run(null_data, SensitivitySetting(route="residual_budget", k0=0.5,
                                          k1=0.5, g0=2.0, g1=2.0),
            draws=25, burn_in=2, mediator_draws_per_unit=8, seed=5),
    ]
    for res in runs:
        rec = res.records
        lhs = rec["theta"]
        rhs = (rec["theta_si"] + rec["delta_bar_0"]) - rec["delta_bar_1"]
        assert np.array_equal(lhs, rhs), res.setting.route
        assert np.all(np.abs(rec["delta_bar_0"]) <= rec["xi_bar_0"])
        assert np.all(np.abs(rec["delta_bar_1"]) <= rec["xi_bar_1"])


def test_criterion_07_quantile_representation(corpus):
    report, _ = corpus
    assert report.stats["quantile_mean0"] <= 1e-10, report.stats
    assert report.stats["quantile_mean1"] <= 1e-10, report.stats
    assert report.stats["quantile_eta"] == 0.0, report.stats
    assert report.stats["quantile_gamma"] == 0.0, report.stats


def test_criterion_08_conjugate_updates():
    r = rng(81)
    n, q = 200, 5
    x = r.standard_normal((n, q))
    y = x @ r.standard_normal(q) + r.standard_normal(n)
    prior = NIGParams(np.zeros(q), np.eye(q), 2.0, 2.0)
    batch = nig_update(prior, x, y)
    seq = prior
    for i in range(n):
        seq = nig_update(seq, x[i : i + 1], y[i : i + 1])

    def rel(a, b):
        return np.max(np.abs(np.asarray(a) - np.asarray(b))) \
            / max(1.0, np.max(np.abs(np.asarray(b))))

    assert rel(seq.mean, batch.mean) <= 1e-10
    assert rel(seq.precision_matrix, batch.precision_matrix) <= 1e-10
    assert rel(seq.shape, batch.shape) <= 1e-10
    assert rel(seq.scale, batch.scale) <= 1e-10

    # sampled moments against the closed-form inverse-gamma mean at 1e5 draws
    params = NIGParams(np.array([1.0, -2.0]), np.diag([4.0, 2.0]), 3.0, 2.0)
    rr = rng(82)
    draws = [sample_draw(params, rr) for _ in range(100_000)]
    sig2 = np.array([d.sigma2 for d in draws])
    betas = np.stack([d.beta for d in draws])
    assert abs(sig2.mean() - 1.0) <= 0.02
    assert np.all(np.abs(betas.mean(axis=0) - params.mean) <= 0.02)


def test_criterion_09_anchor_recovery():
    spec = SyntheticSpec(n=2000, p=2, beta_m=(0.5, 1.2, 0.8, -0.4),
                         c0=1.0, c_a=0.7, c_m=0.9, x_scale=0.6)
    data, truth = generate_synthetic(spec, seed=101)
    assert truth["mediator_ignorable"]
    start = time.perf_counter()
    res = run(data, SensitivitySetting(), draws=2000, burn_in=100,
              mediator_draws_per_unit=50, seed=7)
    elapsed = time.perf_counter() - start
    nie = res.records["nie"]
    assert abs(nie.mean() - truth["nie"]) <= 2.0 * nie.std(), \
        f"nie {nie.mean():.4f} vs truth {truth['nie']:.4f} (sd {nie.std():.4f})"
    assert elapsed < 60.0, f"T=2000, L=50 run took {elapsed:.1f}s"

    null_spec = SyntheticSpec(n=2000, p=2, beta_m=(0.2, 1.0, 0.5, -0.3),
                              c0=0.5, c_a=0.4, c_m=0.0)
    null_data, null_truth = generate_synthetic(null_spec, seed=103)
    null_res = run(null_data, SensitivitySetting(), draws=600, burn_in=50,
                   mediator_draws_per_unit=25, seed=9)
    null_nie = null_res.records["nie"]
    assert abs(null_nie.mean()) <= 2.0 * null_nie.std(), \
        f"null nie {null_nie.mean():.4f} (sd {null_nie.std():.4f})"


def test_criterion_10_sweep_contracts(bench_data, null_data):
    kw = dict(draws=25, burn_in=2, mediator_draws_per_unit=8, seed=5)
    bench_base = SensitivitySetting(route="benchmark_raw")
    resid_base = SensitivitySetting(route="residual_budget", k0=0.5, k1=0.5,
                                    g0=2.0, g1=2.0)
    sweeps = [
        sweep(bench_data, [bench_base], "kappa", [1.0, 1.5, 2.0, 3.0], **kw)[0],
        sweep(bench_data, [bench_base], "lambda", [1.0, 1.5, 2.0], **kw)[0],
        sweep(null_data, [resid_base], "k", [0.0, 0.25, 0.5, 1.0], **kw)[0],
        sweep(null_data, [resid_base], "g", [1.0, 1.5, 2.0, 3.0], **kw)[0],
    ]
    for swept in sweeps:
        widths = [row["half_width"] for row in swept.rows]
        assert widths == sorted(widths), (swept.axis, widths)
        assert len({row["si_center"] for row in swept.rows}) == 1, swept.axis

    # exact zero envelope at k = 0 and at g = 1
    k_sweep, g_sweep = sweeps[2], sweeps[3]
    assert k_sweep.rows[0]["half_width"] == 0.0
    assert np.all(k_sweep.results[0].records["xi_bar_0"] == 0.0)
    assert g_sweep.rows[0]["half_width"] == 0.0
    assert np.all(g_sweep.results[0].records["xi_bar_1"] == 0.0)

    # un-amplified benchmark envelope stays strictly positive when the
    # estimated selection ratio exceeds one
    base_run = run(bench_data, bench_base, **kw)
    rec = base_run.records
    active = rec["gamma_max_0"] > 1.0
    assert np.any(active)
    assert np.all(rec["xi_bar_0"][active] > 0.0)
    active1 = rec["gamma_max_1"] > 1.0
    assert np.all(rec["xi_bar_1"][active1] > 0.0)


def test_criterion_11_benchmark_scale_invariance(bench_data):
    kw = dict(draws=25, burn_in=2, mediator_draws_per_unit=8, seed=5)
    exp_data = dataclasses.replace(bench_data,
                                   benchmark=np.exp(bench_data.benchmark))
    doubled = dataclasses.replace(bench_data,
                                  benchmark=2.0 * bench_data.benchmark)

    # rank route: bit-identical output under any strictly increasing transform
    rank_base = SensitivitySetting(route="benchmark_rank")
    grid = [1.0, 1.5, 2.0]
    a = sweep(bench_data, [rank_base], "kappa", grid, **kw)[0]
    b = sweep(exp_data, [rank_base], "kappa", grid, **kw)[0]
    for row_a, row_b in zip(a.rows, b.rows):
        assert row_a == row_b
    for res_a, res_b in zip(a.results, b.results):
        for name in res_a.field_order:
            assert np.array_equal(res_a.records[name], res_b.records[name])

    # raw route: invariant under linear rescales, sensitive to re-expression
    raw = SensitivitySetting(route="benchmark_raw", kappa0=1.5, kappa1=1.5)
    base_run = run(bench_data, raw, **kw)
    double_run = run(doubled, raw, **kw)
    for name in base_run.field_order:
        x, y = base_run.records[name], double_run.records[name]
        assert np.max(np.abs(x - y)) <= 1e-10 * max(1.0, np.max(np.abs(x))), name
    exp_run = run(exp_data, raw, **kw)
    assert np.max(np.abs(base_run.records["eta_hat_0"]
                         - exp_run.records["eta_hat_0"])) > 1e-6


def test_criterion_12_variance_bound_on_corpus(corpus):
    report, _ = corpus
    assert report.stats["popoviciu_gap"] <= 1e-12, report.stats


def test_criterion_13_cli_determinism(tmp_path):
    # the subprocesses import the same package as this test, installed or not
    src = str(Path(bridgebound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def cli(*argv):
        proc = subprocess.run([sys.executable, "-m", "bridgebound.cli", *argv],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "spec": {"n": 120, "p": 1, "beta_m": [0.5, 1.0, 0.4], "c_a": 0.6,
                 "c_m": 0.8, "benchmark": {"low": 0.0, "high": 2.0,
                                           "coef_m": 0.5, "coef_y": 0.4}},
        "seed": 13}))
    data_a, data_b = tmp_path / "a.csv", tmp_path / "b.csv"
    out_sim_a = cli("simulate", "--config", str(sim_cfg), "--out", str(data_a))
    out_sim_b = cli("simulate", "--config", str(sim_cfg), "--out", str(data_b))
    assert data_a.read_bytes() == data_b.read_bytes()
    assert out_sim_a == out_sim_b

    fit_cfg = tmp_path / "fit.json"
    fit_cfg.write_text(json.dumps({
        "data": str(data_a),
        "setting": {"route": "benchmark_raw", "kappa0": 1.5, "kappa1": 1.5},
        "draws": 10, "burn_in": 2, "mediator_draws": 5, "seed": 5}))
    fits = [cli("fit", "--config", str(fit_cfg), "--threads", t)
            for t in ("1", "1", "4")]
    assert fits[0] == fits[1] == fits[2]

    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "data": str(data_a), "axis": "kappa", "grid": [1.0, 2.0],
        "setting": {"route": "benchmark_rank"},
        "draws": 10, "burn_in": 2, "mediator_draws": 5, "seed": 5}))
    sweeps = [cli("sweep", "--config", str(sweep_cfg), "--threads", t)
              for t in ("1", "1", "3")]
    assert sweeps[0] == sweeps[1] == sweeps[2]

    verify_cfg = tmp_path / "verify.json"
    verify_cfg.write_text(json.dumps({"n_models": 8, "seed": 4}))
    verifies = [cli("verify", "--config", str(verify_cfg)) for _ in range(2)]
    assert verifies[0] == verifies[1]
    assert json.loads(verifies[0])["passed"] is True
