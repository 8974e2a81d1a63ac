import dataclasses
import math
import os
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest

from bridgebound.bridge import MediatorLaw, bridge_log_pair, outcome_design
from bridgebound.calibration import benchmark_envelope
from bridgebound.data import Dataset, generate_synthetic
from bridgebound.envelope import xi_pointwise
from bridgebound.errors import (BridgeboundError, ConfigError, NumericalFailure,
                                VerificationFailure)
import bridgebound._kernels as _kernels
import bridgebound.calibration as calibration
import bridgebound.gcomp as gcomp
import bridgebound.linear_bayes as linear_bayes
from bridgebound.gcomp import (DeltaPrior, SensitivitySetting, _delta_base,
                               _run_grid, counterfactual_mediator_draws, run,
                               sweep, check_sweep_rows)

from conftest import BENCH_SPEC, rng


class TestCounterfactualDraws:
    def test_arm_means(self):
        mean0 = np.array([1.5])
        law = MediatorLaw(mean0, 0.7, 0.25)
        m0, _, _ = counterfactual_mediator_draws(law, 0, rng(1).standard_normal((1, 10_000)))
        m1, _, _ = counterfactual_mediator_draws(law, 1, rng(2).standard_normal((1, 10_000)))
        assert abs(m0.mean() - 1.5) <= 0.03
        assert abs(m1.mean() - 2.2) <= 0.03

    def test_concentrates_at_tiny_variance(self):
        mean0 = np.array([0.4, -0.6, 2.0])
        m, _, _ = counterfactual_mediator_draws(MediatorLaw(mean0, 1.0, 1e-12), 1,
                                                rng(3).standard_normal((3, 4)))
        assert np.allclose(m, np.repeat(mean0 + 1.0, 4), atol=1e-5)

    def test_bridge_pair_orders_by_proximity(self):
        mean0 = np.full(50, 0.2)
        shift, sig2 = 0.9, 0.5
        m, l0, l1 = counterfactual_mediator_draws(MediatorLaw(mean0, shift, sig2), 0,
                                                  rng(4).standard_normal((50, 3)))
        d0 = np.abs(m - np.repeat(mean0, 3))
        d1 = np.abs(m - np.repeat(mean0 + shift, 3))
        assert np.array_equal(d0 < d1, l0 > l1)

    def test_unit_major_layout(self):
        mean0 = np.array([0.0, 100.0])
        m, _, _ = counterfactual_mediator_draws(MediatorLaw(mean0, 0.0, 1e-4), 0,
                                                rng(5).standard_normal((2, 3)))
        assert np.all(np.abs(m[:3]) < 1.0) and np.all(np.abs(m[3:] - 100.0) < 1.0)


def per_unit_quadrature(mean0, shift, sigma2, arm, a, beta):
    """Mean over units of E[outcome mean at a | arm's mediator law], unit by unit, by
    the 11-node Gauss-Hermite rule (exact to degree 21) and an exactly rounded sum."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(11)
    m = (mean0[:, None] + shift * arm) + math.sqrt(sigma2) * nodes
    l0, l1 = bridge_log_pair(m, MediatorLaw(mean0, shift, sigma2))
    pred = outcome_design(m.ravel(), a, l0.ravel(), l1.ravel(), np.empty((m.size, 8))) @ beta
    return math.fsum(pred * np.tile(weights / weights.sum(), mean0.size)) / mean0.size


class TestExactAnchor:
    @pytest.mark.parametrize("arm", [0, 1])
    @pytest.mark.parametrize("shift", [0.0, 1e-8, 0.7, -2.5])
    @pytest.mark.parametrize("sigma2", [1e-4, 0.3, 10.0])
    def test_collapsed_rule_matches_per_unit_quadrature(self, arm, shift, sigma2):
        r = rng(int(1000 * sigma2) + 7 * arm)
        mean0 = 1.5 + 2.0 * r.standard_normal(300)
        beta = r.standard_normal(8)
        unit = MediatorLaw(mean0, shift, sigma2).collapsed()
        m, l0, l1 = counterfactual_mediator_draws(unit, arm, gcomp._ANCHOR_Z)
        got = _kernels.outcome_mean_sum(m, l0, l1, beta) / gcomp._ANCHOR_Z.size
        ref = per_unit_quadrature(mean0, shift, sigma2, arm, 1.0, beta)
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_anchor_ignores_mediator_draws(self, null_data):
        few = run_small(null_data, SensitivitySetting(), mediator_draws=2)
        many = run_small(null_data, SensitivitySetting(), mediator_draws=50)
        for name in few.field_order:
            assert np.array_equal(few.records[name], many.records[name]), name

    def test_envelope_points_leave_the_anchor_alone(self, bench_data):
        anchor = run_small(bench_data, SensitivitySetting())
        raw = run_small(bench_data, SensitivitySetting(route="benchmark_raw"))
        for name in ("theta_si", "delta0", "delta1"):
            assert np.array_equal(anchor.records[name], raw.records[name]), name


class TestDeltaPrior:
    def test_zero_envelope_kills_every_kind(self):
        for kind in ("uniform", "beta", "endpoint_lower", "endpoint_upper"):
            assert 0.0 * _delta_base(DeltaPrior(kind=kind), rng(6)) == 0.0

    def test_endpoints_are_exact(self):
        assert 0.7 * _delta_base(DeltaPrior(kind="endpoint_upper"), rng(7)) == 0.7
        assert 0.7 * _delta_base(DeltaPrior(kind="endpoint_lower"), rng(7)) == -0.7

    def test_uniform_moments_and_support(self):
        r = rng(8)
        prior = DeltaPrior()
        draws = np.array([2.0 * _delta_base(prior, r) for _ in range(100_000)])
        assert np.all(np.abs(draws) <= 2.0)
        assert abs(draws.mean()) <= 0.02
        assert abs(draws.std() - 2.0 / np.sqrt(3.0)) <= 0.02

    def test_beta_mean(self):
        r = rng(9)
        prior = DeltaPrior(kind="beta", shape1=2.0, shape2=5.0)
        draws = np.array([_delta_base(prior, r) for _ in range(50_000)])
        assert abs(draws.mean() - (2.0 * 2.0 / 7.0 - 1.0)) <= 0.01

    def test_validation(self):
        with pytest.raises(ConfigError):
            DeltaPrior(kind="gaussian")
        with pytest.raises(ConfigError):
            DeltaPrior(kind="beta", shape1=0.0)

    @pytest.mark.parametrize("name", ["shape1", "shape2"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 0, "2", True, None])
    def test_shapes_must_be_finite_positive_numbers(self, name, value):
        with pytest.raises(ConfigError, match=re.escape(
                f"delta_prior key '{name}' must be a number > 0 (finite), got {value!r}")):
            DeltaPrior(kind="beta", **{name: value})
        DeltaPrior(kind="beta", **{name: 3})


class TestSettingValidation:
    def test_route_checked(self):
        with pytest.raises(ConfigError):
            SensitivitySetting(route="anchor")

    def test_parameter_ranges(self):
        with pytest.raises(BridgeboundError, match="'lambda0' must be a number >= 1"):
            SensitivitySetting(lambda0=0.5)
        with pytest.raises(BridgeboundError, match="'kappa1' must be a number >= 1"):
            SensitivitySetting(kappa1=0.99)
        with pytest.raises(BridgeboundError, match=r"'k0' must be a number in \[0, 1\]"):
            SensitivitySetting(k0=1.5)
        with pytest.raises(BridgeboundError, match="'g1' must be a number >= 1"):
            SensitivitySetting(g1=0.0)
        with pytest.raises(BridgeboundError, match="'gamma_cap' must be a number >= 1"):
            SensitivitySetting(gamma_cap=0.9)

    @pytest.mark.parametrize("name,value,message", [
        ("lambda0", np.nan, "'lambda0' must be a number >= 1 (finite), got nan"),
        ("kappa1", np.nan, "'kappa1' must be a number >= 1 (+inf allowed), got nan"),
        ("k0", np.nan, "'k0' must be a number in [0, 1] (finite), got nan"),
        ("g0", np.nan, "'g0' must be a number >= 1 (+inf allowed), got nan"),
        ("gamma_cap", np.nan, "'gamma_cap' must be a number >= 1 (finite), got nan"),
        ("lambda1", np.inf, "'lambda1' must be a number >= 1 (finite), got inf"),
        ("gamma_cap", np.inf, "'gamma_cap' must be a number >= 1 (finite), got inf"),
    ], ids=["lambda0-nan-lambda0 must be >= 1", "kappa1-nan-kappa1 must be >= 1",
            "k0-nan-k0 must lie in", "g0-nan-g0 must be >= 1",
            "gamma_cap-nan-gamma_cap must be >= 1", "lambda1-inf-lambda1 must be finite",
            "gamma_cap-inf-gamma_cap must be finite"])
    def test_nan_and_infinite_parameters(self, name, value, message):
        with pytest.raises(BridgeboundError, match=re.escape(message)):
            SensitivitySetting(**{name: value})

    @pytest.mark.parametrize("name", ["k0", "lambda0", "gamma_cap"])
    def test_bool_is_not_a_number(self, name):
        with pytest.raises(ConfigError, match=f"'{name}' must be a number"):
            SensitivitySetting(route="residual_budget", **{name: True})

    def test_infinite_amplification_and_ratio_allowed(self):
        SensitivitySetting(kappa0=np.inf, kappa1=np.inf, g0=np.inf, g1=np.inf)

    @pytest.mark.parametrize("name", ["comonotone", "pooled_gamma"])
    @pytest.mark.parametrize("value", ["false", "true", 1, 0, None, np.bool_(True)])
    def test_flags_must_be_booleans(self, name, value):
        with pytest.raises(ConfigError, match=f"'{name}' must be true or false"):
            SensitivitySetting(route="benchmark_raw", **{name: value})


def run_small(data, setting, seed=5, draws=20, **kw):
    kw.setdefault("burn_in", 3)
    kw.setdefault("mediator_draws", 8)
    return run(data, setting, draws=draws, seed=seed, **kw)


class TestRun:
    def test_deterministic_and_thread_invariant(self, bench_data):
        setting = SensitivitySetting(route="benchmark_raw", kappa0=1.5, kappa1=1.5)
        a = run_small(bench_data, setting)
        b = run_small(bench_data, setting)
        c = run_small(bench_data, setting, threads=4)
        for name in a.field_order:
            assert np.array_equal(a.records[name], b.records[name])
            assert np.array_equal(a.records[name], c.records[name])

    def test_burn_in_is_a_substream_offset(self, null_data):
        setting = SensitivitySetting()
        head = run_small(null_data, setting, draws=12, burn_in=0)
        tail = run_small(null_data, setting, draws=8, burn_in=4)
        for name in head.field_order:
            assert np.array_equal(head.records[name][4:], tail.records[name])

    @pytest.mark.parametrize("route", ["residual_budget", "benchmark_raw"])
    def test_reused_draw_buffers_carry_nothing_over(self, route):
        # the engine rewrites one design buffer per draw; n = 2100 puts it past
        # glibc's initial mmap threshold, like the large fits it serves
        data, _ = generate_synthetic(dataclasses.replace(BENCH_SPEC, n=2100), seed=17)
        setting = SensitivitySetting(route=route)
        five = run_small(data, setting, draws=5, burn_in=0)
        one = run_small(data, setting, draws=1, burn_in=3)
        for name in five.field_order:
            assert five.records[name][3:4].tobytes() == one.records[name].tobytes(), name

    @pytest.mark.parametrize("route", ["si_anchor", "benchmark_raw"])
    def test_column_views_fit_as_contiguous_columns(self, route):
        # the columns of one (n, k) block are strided views; the fit must give
        # the bits it gives on contiguous columns, as the CSV loader builds them
        data, _ = generate_synthetic(dataclasses.replace(BENCH_SPEC, n=2100), seed=17)
        block = np.column_stack([data.treatment, data.mediator, data.outcome,
                                 data.covariates, data.benchmark])
        views = Dataset(block[:, 0], block[:, 1], block[:, 2], block[:, 3:5], block[:, 5])
        copies = Dataset(*(np.array(c) for c in (block[:, 0], block[:, 1], block[:, 2],
                                                  block[:, 3:5], block[:, 5])))
        assert all(getattr(views, name).flags.c_contiguous for name in
                   ("treatment", "mediator", "outcome", "covariates", "benchmark"))
        setting = SensitivitySetting(route=route)
        a, b = run_small(views, setting, draws=5), run_small(copies, setting, draws=5)
        for name in a.field_order:
            assert a.records[name].tobytes() == b.records[name].tobytes(), name

    def test_burn_in_builds_no_skipped_substreams(self, null_data):
        start = time.perf_counter()
        run_small(null_data, SensitivitySetting(), draws=1, burn_in=10**6)
        assert time.perf_counter() - start < 2.0

    def test_si_anchor_has_zero_envelope(self, null_data):
        res = run_small(null_data, SensitivitySetting())
        rec = res.records
        assert np.all(rec["xi_bar_0"] == 0.0) and np.all(rec["xi_bar_1"] == 0.0)
        assert np.array_equal(rec["theta"], rec["theta_si"])
        assert np.array_equal(rec["nie"], rec["delta1"] - rec["theta"])
        assert res.field_order[-1] == "nie_upper"

    def test_per_draw_identity_holds_bitwise(self, bench_run):
        rec = bench_run.records
        assert np.array_equal(
            rec["theta"], (rec["theta_si"] + rec["delta_bar_0"]) - rec["delta_bar_1"])
        assert np.array_equal(
            rec["theta_lower"], (rec["theta_si"] - rec["xi_bar_0"]) - rec["xi_bar_1"])
        assert np.array_equal(rec["nde"], rec["theta"] - rec["delta0"])
        assert np.array_equal(rec["nie"], rec["delta1"] - rec["theta"])
        assert np.array_equal(rec["te"], rec["nde"] + rec["nie"])
        assert np.all(np.abs(rec["delta_bar_0"]) <= rec["xi_bar_0"])
        assert np.all(np.abs(rec["delta_bar_1"]) <= rec["xi_bar_1"])

    def test_route_diagnostic_fields(self, bench_data, null_data, bench_run):
        assert {"eta_hat_0", "eta_hat_1", "gamma_max_0", "gamma_max_1"} \
            <= set(bench_run.records)
        assert np.all(bench_run.records["gamma_max_0"] >= 1.0)
        resid = run_small(null_data, SensitivitySetting(
            route="residual_budget", k0=0.5, k1=0.5, g0=2.0, g1=2.0))
        assert np.all(resid.records["sigma_eta"] > 0.0)
        anchor = run_small(null_data, SensitivitySetting())
        assert "sigma_eta" not in anchor.records

    def test_residual_route_exact_zero_budget(self, null_data):
        for zeroed in (dict(k0=0.0, k1=0.0, g0=2.0, g1=2.0),
                       dict(k0=1.0, k1=1.0, g0=1.0, g1=1.0)):
            res = run_small(null_data, SensitivitySetting(
                route="residual_budget", **zeroed))
            assert np.all(res.records["xi_bar_0"] == 0.0)
            assert np.all(res.records["xi_bar_1"] == 0.0)
            assert np.array_equal(res.records["theta"], res.records["theta_si"])

    def test_null_effect_recovered(self, null_data):
        res = run(null_data, SensitivitySetting(), draws=150, burn_in=10,
                  mediator_draws=25, seed=42)
        nie = res.records["nie"]
        assert abs(nie.mean()) <= 2.0 * nie.std()

    def test_comonotone_ties_the_two_shifts(self, bench_data):
        setting = SensitivitySetting(route="benchmark_raw", kappa0=2.0,
                                     kappa1=2.0, comonotone=True)
        res = run_small(bench_data, setting)
        prod = res.records["delta_bar_0"] * res.records["delta_bar_1"]
        assert np.all(prod >= 0.0)
        free = run_small(bench_data, SensitivitySetting(
            route="benchmark_raw", kappa0=2.0, kappa1=2.0), draws=40)
        prod_free = free.records["delta_bar_0"] * free.records["delta_bar_1"]
        assert np.any(prod_free < 0.0)

    def test_pooled_replaces_with_max(self, bench_data):
        # pooling replaces every point's gamma with the arm's max, so the mean of
        # (gamma - 1) / gamma the closed form takes is (gamma_max - 1) / gamma_max
        setting = SensitivitySetting(route="benchmark_raw", lambda0=1.3, kappa0=1.5,
                                     kappa1=2.0, pooled_gamma=True)
        rec = run_small(bench_data, setting).records
        for arm, lam, kappa in ((0, 1.3, 1.5), (1, 1.0, 2.0)):
            expected = [benchmark_envelope(eta, (gmax - 1.0) / gmax, lam, kappa) for eta, gmax
                        in zip(rec[f"eta_hat_{arm}"], rec[f"gamma_max_{arm}"])]
            assert np.array_equal(rec[f"xi_bar_{arm}"], expected)

    def test_envelope_matches_mean_of_pointwise_bounds(self, bench_data, monkeypatch):
        # reference: the fsum mean of xi(lambda * eta_hat, kappa * gamma_i) over
        # the gamma points the engine computed, in its call order
        fitted = []
        gamma_fit = calibration.estimate_benchmark_gamma

        def recording(*args, **kwargs):
            fitted.append(gamma_fit(*args, **kwargs))
            return fitted[-1]

        monkeypatch.setattr(calibration, "estimate_benchmark_gamma", recording)
        for kappa in (1.0, 1.7, math.inf):
            fitted.clear()
            setting = SensitivitySetting(route="benchmark_rank", lambda1=1.4,
                                         kappa0=kappa, kappa1=kappa)
            rec = run_small(bench_data, setting, draws=6).records
            assert len(fitted) == 2 * 6
            for t in range(6):
                for arm, lam in ((0, 1.0), (1, 1.4)):
                    gamma = fitted[2 * t + arm]
                    eta = rec[f"eta_hat_{arm}"][t]
                    ref = math.fsum(xi_pointwise(lam * eta, kappa * g)
                                    for g in gamma) / gamma.size
                    assert rec[f"xi_bar_{arm}"][t] == pytest.approx(ref, rel=1e-13, abs=0.0)
                    assert rec[f"gamma_max_{arm}"][t] == gamma.max()

    def test_pooled_gamma_widens(self, bench_data):
        base = SensitivitySetting(route="benchmark_raw", kappa0=1.5, kappa1=1.5)
        unpooled = run_small(bench_data, base)
        pooled = run_small(bench_data,
                           SensitivitySetting(route="benchmark_raw", kappa0=1.5,
                                              kappa1=1.5, pooled_gamma=True))
        for arm in ("xi_bar_0", "xi_bar_1"):
            assert np.all(pooled.records[arm] >= unpooled.records[arm] - 1e-12)

    def test_summary_structure(self, bench_run):
        summ = bench_run.summary()
        assert set(summ) == set(bench_run.field_order)
        entry = summ["nie_lower"]
        assert set(entry) == {"mean", "q2.5", "q25", "q50", "q75", "q97.5"}
        assert entry["q2.5"] <= entry["q50"] <= entry["q97.5"]

    def test_quantile_is_numpys_bit_for_bit(self):
        # the summaries' quantile must be np.quantile's, down to the sign of a
        # zero and the bits of a nan, for every record a run can produce
        r = rng(41)
        pools = ([0.0, -0.0], [0.0, -0.0, 1.0, -1.0], [1.0, 2.0, 2.0, 3.0],
                 [np.inf, -np.inf, np.nan, 1.0, 0.0, -0.0],
                 [1e300, -1e300, 1.5e300, 1.7e308, -1.7e308])
        cases = 0
        for n in [*range(1, 61), 2000]:
            records = [r.standard_normal(n), np.round(r.standard_normal(n) * 2.0),
                       r.standard_normal(n) * 1e300]
            records += [r.choice(pool, n) for pool in pools]
            for rec in records:
                for _, q in gcomp._QUANTILES:
                    with np.errstate(over="ignore", invalid="ignore"):
                        want = np.float64(np.quantile(rec, q))
                    got = gcomp._quantile(rec, q)
                    assert type(got) is float
                    assert np.float64(got).view(np.uint64) == want.view(np.uint64), (rec, q)
                    cases += 1
        assert cases == 61 * 8 * len(gcomp._QUANTILES)

    def test_config_validation(self, null_data):
        with pytest.raises(ConfigError):
            run_small(null_data, SensitivitySetting(), draws=0)
        with pytest.raises(ConfigError):
            run_small(null_data, SensitivitySetting(), burn_in=-1)
        with pytest.raises(ConfigError):
            run_small(null_data, SensitivitySetting(), mediator_draws=0)
        for name, value in (("threads", 0), ("seed", -1), ("draws", True), ("threads", 1.0)):
            with pytest.raises(ConfigError, match=f"run key '{name}' must be an integer"):
                run_small(null_data, SensitivitySetting(), **{name: value})


class TestSweep:
    def test_singleton_grid_matches_run(self, bench_data):
        base = SensitivitySetting(route="benchmark_raw", kappa0=1.5, kappa1=1.5)
        single = run_small(bench_data, base)
        swept = sweep(bench_data, [base], "kappa", [1.5], draws=20, burn_in=3,
                      mediator_draws=8, seed=5)[0]
        for name in single.field_order:
            assert np.array_equal(single.records[name],
                                  swept.results[0].records[name])

    def test_kappa_sweep_contracts(self, bench_data):
        base = SensitivitySetting(route="benchmark_raw")
        swept = sweep(bench_data, [base], "kappa", [1.0, 1.5, 2.0, 3.0], draws=20,
                      burn_in=3, mediator_draws=8, seed=5)[0]
        widths = [row["half_width"] for row in swept.rows]
        centers = {row["si_center"] for row in swept.rows}
        assert widths == sorted(widths)
        assert len(centers) == 1

    def test_g_sweep_zero_at_unit_ratio(self, null_data):
        base = SensitivitySetting(route="residual_budget", k0=0.5, k1=0.5)
        swept = sweep(null_data, [base], "g", [1.0, 1.5, 2.0], draws=15, burn_in=2,
                      mediator_draws=6, seed=5)[0]
        assert swept.rows[0]["half_width"] == 0.0
        assert swept.rows[-1]["half_width"] > 0.0

    def test_axis_route_compatibility(self, bench_data, null_data):
        with pytest.raises(ConfigError):
            sweep(null_data, [SensitivitySetting(route="residual_budget")],
                  "kappa", [1.0, 2.0], draws=5, seed=1)
        with pytest.raises(ConfigError):
            sweep(bench_data, [SensitivitySetting(route="benchmark_raw")],
                  "k", [0.0, 0.5], draws=5, seed=1)
        with pytest.raises(ConfigError):
            sweep(bench_data, [SensitivitySetting(route="benchmark_raw")],
                  "slope", [1.0], draws=5, seed=1)
        with pytest.raises(ConfigError):
            sweep(bench_data, [SensitivitySetting(route="benchmark_raw")],
                  "kappa", [], draws=5, seed=1)

    @pytest.mark.parametrize("axis", ["kappa", "lambda", "k", "g"])
    def test_si_anchor_takes_no_axis(self, null_data, monkeypatch, axis):
        # a k or g sweep of the anchor used to write a table of zero half-widths
        def fail(*args, **kwargs):
            raise AssertionError("a draw ran before the bases were checked")

        monkeypatch.setattr(gcomp._Engine, "run_draw", fail)
        with pytest.raises(ConfigError,
                           match=f"^axis '{axis}' does not apply to route 'si_anchor'$"):
            sweep(null_data, [SensitivitySetting(route="si_anchor")], axis, [1.0, 2.0],
                  draws=5, seed=1)

    def test_check_sweep_rows_catches_violations(self):
        rows = [{"value": 1.0, "si_center": 0.3, "half_width": 0.1},
                {"value": 2.0, "si_center": 0.3, "half_width": 0.05}]
        with pytest.raises(VerificationFailure, match="half-width"):
            check_sweep_rows(rows)
        rows = [{"value": 1.0, "si_center": 0.3, "half_width": 0.1},
                {"value": 2.0, "si_center": 0.3 + 1e-9, "half_width": 0.2}]
        with pytest.raises(VerificationFailure, match="center"):
            check_sweep_rows(rows)
        with pytest.raises(VerificationFailure):
            check_sweep_rows([])

    def test_check_sweep_rows_fails_closed_on_non_finite(self):
        def rows(*widths, center=0.3):
            return [{"axis": "kappa", "value": v, "si_center": center, "half_width": w}
                    for v, w in zip((1.0, 2.0, 3.0), widths)]

        # a NaN hides the decrease 0.2 -> 0.1 from a pairwise order check
        with pytest.raises(NumericalFailure, match="nan at kappa = 2.0, column half_width"):
            check_sweep_rows(rows(0.2, math.nan, 0.1))
        with pytest.raises(NumericalFailure, match="column si_center"):
            check_sweep_rows(rows(0.1, 0.2, 0.3, center=math.nan))
        bad_value = rows(0.1, 0.2, 0.3)
        bad_value[1]["value"] = math.nan
        with pytest.raises(NumericalFailure, match="column value"):
            check_sweep_rows(bad_value)
        # an infinite half-width is ordered like any other value, with no slack
        with pytest.raises(VerificationFailure, match="inf -> 0.1"):
            check_sweep_rows(rows(0.2, math.inf, 0.1))
        check_sweep_rows(rows(0.2, math.inf, math.inf))


SHARED = dict(draws=12, burn_in=2, mediator_draws=6, seed=5)
BETA = DeltaPrior(kind="beta", shape1=2.0, shape2=5.0)


class TestSharedModelPass:
    @pytest.mark.parametrize("axis,grid,bases", [
        ("kappa", [1.0, 2.0], [
            SensitivitySetting(route="benchmark_raw"),
            SensitivitySetting(route="benchmark_rank", delta_prior=BETA),
            SensitivitySetting(route="benchmark_raw", comonotone=True,
                               delta_prior=DeltaPrior(kind="endpoint_upper")),
            SensitivitySetting(route="benchmark_rank", gamma_cap=1.2, lambda0=1.5,
                               delta_prior=DeltaPrior(kind="endpoint_lower")),
            SensitivitySetting(route="benchmark_raw", pooled_gamma=True, delta_prior=BETA),
        ]),
        ("k", [0.0, 0.5], [
            SensitivitySetting(route="residual_budget", g0=2.0, g1=1.5),
            SensitivitySetting(route="residual_budget", g0=3.0, g1=3.0,
                               comonotone=True, delta_prior=BETA),
            SensitivitySetting(route="residual_budget",
                               delta_prior=DeltaPrior(kind="endpoint_lower")),
        ]),
    ])
    def test_mixed_bases_match_each_base_alone(self, bench_data, axis, grid, bases):
        together = sweep(bench_data, bases, axis, grid, **SHARED)
        assert len(together) == len(bases)
        for base, swept in zip(bases, together):
            alone = sweep(bench_data, [base], axis, grid, **SHARED)[0]
            assert swept.rows == alone.rows
            for res, ref in zip(swept.results, alone.results):
                assert res.setting == ref.setting and res.field_order == ref.field_order
                for name in ref.field_order:
                    assert np.array_equal(res.records[name], ref.records[name]), name

    def test_every_route_in_one_engine_matches_run(self, bench_data):
        settings = [
            SensitivitySetting(route="residual_budget", k0=0.5, k1=0.25, g0=2.0, g1=1.5),
            SensitivitySetting(route="benchmark_rank", kappa0=1.5, delta_prior=BETA),
            SensitivitySetting(),
            SensitivitySetting(route="benchmark_raw", kappa0=2.0, kappa1=2.0,
                               comonotone=True),
        ]
        for threads in (1, 3):
            together = _run_grid(bench_data, settings, threads=threads, **SHARED)
            for setting, res in zip(settings, together):
                ref = run(bench_data, setting, **SHARED)
                assert res.setting == setting and res.field_order == ref.field_order
                for name in ref.field_order:
                    assert np.array_equal(res.records[name], ref.records[name]), name

    def test_one_model_pass_per_draw(self, bench_data, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return counterfactual_mediator_draws(*args, **kwargs)

        monkeypatch.setattr(gcomp, "counterfactual_mediator_draws", counting)
        bases = [SensitivitySetting(route="benchmark_raw"),
                 SensitivitySetting(route="benchmark_rank", comonotone=True)]
        sweep(bench_data, bases, "kappa", [1.0, 1.5, 2.0], **SHARED)
        # per draw, for all six settings: the control-law and treated-law anchor
        # nodes, and one call for the control-law envelope points
        assert len(calls) == 3 * SHARED["draws"]

        calls.clear()
        bases = [SensitivitySetting(route="residual_budget", g0=2.0),
                 SensitivitySetting(route="residual_budget", comonotone=True)]
        sweep(bench_data, bases, "k", [0.0, 0.5], **SHARED)
        # no benchmark route, so no envelope points
        assert len(calls) == 2 * SHARED["draws"]

    def test_two_outcome_passes_per_draw(self, bench_data, monkeypatch):
        calls = []
        kernel = _kernels.outcome_mean_sum

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(_kernels, "outcome_mean_sum", counting)
        bases = [SensitivitySetting(route="residual_budget", g0=2.0),
                 SensitivitySetting(route="residual_budget", comonotone=True)]
        sweep(bench_data, bases, "k", [0.0, 0.5], **SHARED)
        # the anchor and the treated arm; the control arm is derived from the anchor
        assert len(calls) == 2 * SHARED["draws"]

    def test_conjugate_fits_and_draws_go_through_linear_bayes(self, bench_data, monkeypatch):
        calls = []
        for name in ("nig_update", "sample_draw"):
            def counting(*args, _fn=getattr(linear_bayes, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(linear_bayes, name, counting)
        run(bench_data, SensitivitySetting(route="benchmark_raw"), **SHARED)
        # the mediator fit once; per draw the outcome fit, eta's augmented fit and
        # two gamma fits per arm, and one mediator and one outcome draw
        assert calls.count("nig_update") == 1 + 6 * SHARED["draws"]
        assert calls.count("sample_draw") == 2 * SHARED["draws"]

    def test_derived_delta0_matches_explicit_control_pass(self, bench_data, monkeypatch):
        meds, outs = [], []
        fit_draw = linear_bayes.sample_draw

        def capture(post, rng):
            draw = fit_draw(post, rng)
            (outs if draw.beta.shape[0] == 8 else meds).append(draw)
            return draw

        monkeypatch.setattr(linear_bayes, "sample_draw", capture)
        res = run(bench_data, SensitivitySetting(), **SHARED)
        assert len(meds) == len(outs) == SHARED["draws"]
        for got, med, out in zip(res.records["delta0"], meds, outs):
            law = MediatorLaw.from_draw(bench_data.covariates, med)
            explicit = per_unit_quadrature(law.mean0, law.shift, law.sigma2, 0, 0.0, out.beta)
            assert abs(got - explicit) <= 1e-14 * max(1.0, abs(explicit))

    def test_pooled_and_unpooled_share_one_gamma_fit(self, bench_data, monkeypatch):
        calls = []
        for name in ("fit_benchmark_gamma", "estimate_benchmark_gamma",
                     "estimate_benchmark_eta", "estimate_sigma_eta"):
            def counting(*args, _fit=getattr(calibration, name), _name=name, **kwargs):
                calls.append(_name)
                return _fit(*args, **kwargs)

            monkeypatch.setattr(calibration, name, counting)
        bases = [SensitivitySetting(route="benchmark_raw"),
                 SensitivitySetting(route="benchmark_raw", pooled_gamma=True),
                 SensitivitySetting(route="benchmark_raw", comonotone=True,
                                    pooled_gamma=True)]
        sweep(bench_data, bases, "kappa", [1.0, 2.0], **SHARED)
        # one fit and one evaluation per arm per draw, shared by every setting with
        # the same cap (the draw's envelope points are one block)
        assert calls.count("fit_benchmark_gamma") == 2 * SHARED["draws"]
        assert calls.count("estimate_benchmark_gamma") == 2 * SHARED["draws"]

        calls.clear()
        bases = [SensitivitySetting(route="benchmark_raw"),
                 SensitivitySetting(route="benchmark_rank"),
                 SensitivitySetting(route="benchmark_rank", gamma_cap=1.2)]
        sweep(bench_data, bases, "kappa", [1.0, 2.0], **SHARED)
        # per draw: one gamma fit per arm per scale, evaluated per (scale, cap) key,
        # one eta fit per scale, and no sigma_eta without a residual_budget setting
        assert calls.count("fit_benchmark_gamma") == 2 * 2 * SHARED["draws"]
        assert calls.count("estimate_benchmark_gamma") == 2 * 3 * SHARED["draws"]
        assert calls.count("estimate_benchmark_eta") == 2 * SHARED["draws"]
        assert calls.count("estimate_sigma_eta") == 0

    def test_every_base_checked_before_any_draw(self, bench_data, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a draw ran before the bases were checked")

        monkeypatch.setattr(gcomp._Engine, "run_draw", fail)
        bases = [SensitivitySetting(route="benchmark_raw"),
                 SensitivitySetting(route="residual_budget")]
        with pytest.raises(ConfigError, match="does not apply to route 'residual_budget'"):
            sweep(bench_data, bases, "kappa", [1.0, 2.0], **SHARED)

    def test_no_base_settings_is_config_error(self, bench_data, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a draw ran without any setting")

        monkeypatch.setattr(gcomp._Engine, "run_draw", fail)
        with pytest.raises(ConfigError, match="^need at least one sensitivity setting$"):
            sweep(bench_data, [], "kappa", [1.0, 2.0], **SHARED)


@pytest.mark.parametrize("points", [2**60, 2**62])
def test_unindexable_unit_of_envelope_points_refused_before_any_draw(bench_data, monkeypatch,
                                                                     points):
    # 8 * points bytes past sys.maxsize: one unit's block could not be indexed,
    # so the engine refuses before it maps the records or forks
    def fail(*args, **kwargs):
        raise AssertionError("a draw ran with an unindexable block")

    monkeypatch.setattr(gcomp._Engine, "run_draw", fail)
    with pytest.raises(MemoryError, match=f"^cannot index {points} envelope points of one unit$"):
        run(bench_data, SensitivitySetting(route="benchmark_raw"), draws=2, burn_in=0,
            mediator_draws=points, seed=1)


def test_envelope_points_past_sys_maxsize_fail_the_run_key(bench_data, monkeypatch):
    # numpy indexes no more than sys.maxsize points, so the run key refuses
    # 10**30 of them a unit, and names itself, before any engine is built
    def fail(*args, **kwargs):
        raise AssertionError("an engine was built past the run key's bound")

    monkeypatch.setattr(gcomp._Engine, "__init__", fail)
    with pytest.raises(ConfigError, match=r"^run key 'mediator_draws' must be an integer "
                                          r"in \[1, 9\.22337e\+18\], got 1000"):
        run(bench_data, SensitivitySetting(route="benchmark_raw"), draws=2, burn_in=0,
            mediator_draws=10**30, seed=1)


class PicklesBadly(Exception):
    """Pickles, but cannot be unpickled: its __init__ takes two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def assert_bitwise_equal(results, refs):
    for res, ref in zip(results, refs, strict=True):
        assert res.field_order == ref.field_order
        for name in ref.field_order:
            assert res.records[name].tobytes() == ref.records[name].tobytes(), name


class TestForkedWorkers:
    SETTINGS = [SensitivitySetting(route="benchmark_raw", kappa0=1.5),
                SensitivitySetting(route="residual_budget", k0=0.5, g1=2.0),
                SensitivitySetting(route="benchmark_rank", comonotone=True)]

    @pytest.fixture(autouse=True)
    def forks(self, monkeypatch):
        # every requested worker forks, however many CPUs this host has
        monkeypatch.setattr(gcomp, "_available_cpus", lambda: 64)
        forks = []
        fork = os.fork

        def counting():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting)
        yield forks
        # no worker is left, running or unreaped
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("draws,threads,workers", [(7, 3, 3), (1, 4, 1), (5, 2, 2)])
    def test_bitwise_equal_to_one_thread(self, bench_data, forks, draws, threads, workers):
        run = dict(SHARED, draws=draws)
        serial = _run_grid(bench_data, self.SETTINGS, threads=1, **run)
        assert forks == []
        forked = _run_grid(bench_data, self.SETTINGS, threads=threads, **run)
        assert len(forks) == workers - 1
        assert_bitwise_equal(forked, serial)

    def test_runs_inline_beside_another_thread(self, bench_data, forks):
        done = threading.Event()
        other = threading.Thread(target=done.wait)
        other.start()
        try:
            beside = _run_grid(bench_data, self.SETTINGS, threads=3, **SHARED)
        finally:
            done.set()
            other.join(timeout=10)
        assert not other.is_alive() and forks == []
        alone = _run_grid(bench_data, self.SETTINGS, threads=3, **SHARED)
        assert len(forks) == 2
        assert_bitwise_equal(beside, alone)

    @staticmethod
    def fail_at(monkeypatch, failures):
        """Make run_draw raise failures[t] (an exception factory) at draw t."""
        draw = gcomp._Engine.run_draw

        def failing(self, t):
            if t in failures:
                raise failures[t](t)
            draw(self, t)

        monkeypatch.setattr(gcomp._Engine, "run_draw", failing)

    def raised(self, data, threads, draws=9):
        with pytest.raises(BaseException) as info:
            _run_grid(data, self.SETTINGS, threads=threads, **dict(SHARED, draws=draws))
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("odd,even", [(3, 4), (5, 2), (1, 0), (7, 8)])
    def test_lowest_failing_draw_is_raised(self, bench_data, monkeypatch, forks, odd, even):
        # with two workers, a forked worker runs the odd draws and this process the
        # even; with three, process k runs the draws t with t % 3 == k
        def failure(t):
            return NumericalFailure(f"draw {t} failed")

        self.fail_at(monkeypatch, {odd: failure, even: failure})
        first = min(odd, even)
        assert self.raised(bench_data, 1) == (NumericalFailure, f"draw {first} failed")
        assert self.raised(bench_data, 2) == (NumericalFailure, f"draw {first} failed")
        assert len(forks) == 1
        assert self.raised(bench_data, 3) == (NumericalFailure, f"draw {first} failed")
        assert len(forks) == 3

    def test_failing_draw_runs_once_at_one_worker(self, bench_data, monkeypatch, forks):
        calls = []
        self.fail_at(monkeypatch, {3: lambda t: NumericalFailure(f"draw {t} failed")})
        failing = gcomp._Engine.run_draw

        def counting(self, t):
            calls.append(t)
            failing(self, t)

        monkeypatch.setattr(gcomp._Engine, "run_draw", counting)
        assert self.raised(bench_data, 1) == (NumericalFailure, "draw 3 failed")
        assert calls == [0, 1, 2, 3] and forks == []

    def test_worker_error_that_does_not_unpickle(self, bench_data, monkeypatch):
        self.fail_at(monkeypatch, {3: lambda t: PicklesBadly("x", t)})
        assert self.raised(bench_data, 1) == (PicklesBadly, "x and 3")
        assert self.raised(bench_data, 2) == (PicklesBadly, "x and 3")

    def test_worker_that_dies_leaves_its_draws_here(self, bench_data, monkeypatch, forks):
        parent = os.getpid()
        draw = gcomp._Engine.run_draw

        def dying(self, t):
            if t == 3 and os.getpid() != parent:
                os._exit(5)
            draw(self, t)

        monkeypatch.setattr(gcomp._Engine, "run_draw", dying)
        run = dict(SHARED, draws=9)
        serial = _run_grid(bench_data, self.SETTINGS, threads=1, **run)
        forked = _run_grid(bench_data, self.SETTINGS, threads=2, **run)
        assert len(forks) == 1
        assert_bitwise_equal(forked, serial)

    @pytest.mark.parametrize("error", [KeyboardInterrupt, NumericalFailure])
    def test_first_draw_failing_kills_and_reaps_the_workers(self, bench_data, monkeypatch,
                                                            error):
        # an interrupt, or a failure at draw 0, which no worker can undercut
        parent = os.getpid()
        draw = gcomp._Engine.run_draw

        def stopped(self, t):
            if os.getpid() == parent:
                raise error
            time.sleep(60)    # a worker that would outlive the run if left alone
            draw(self, t)

        monkeypatch.setattr(gcomp._Engine, "run_draw", stopped)
        start = time.monotonic()
        assert self.raised(bench_data, 3)[0] is error
        assert time.monotonic() - start < 30


class TestPointBlocks:
    """A benchmark draw walks its envelope points in blocks of whole units."""

    SETTINGS = [SensitivitySetting(route="benchmark_raw", kappa0=1.5),
                SensitivitySetting(route="benchmark_rank", gamma_cap=1.3),
                SensitivitySetting(route="benchmark_rank", comonotone=True, pooled_gamma=True)]

    @pytest.mark.parametrize("block,mediator_draws,step,tail", [
        (None, 50, 81, 76),   # 81 units a block: four full blocks and a ragged fifth
        (None, 256, 16, 0),   # 16 units a block: n * mediator_draws is 25 whole blocks
        (64, 100, 1, 0),      # more points per unit than a block holds: one unit a block
    ])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_records_match_one_block(self, bench_data, monkeypatch, block, mediator_draws,
                                     step, tail, threads):
        monkeypatch.setattr(gcomp, "_available_cpus", lambda: 64)
        if block is not None:
            monkeypatch.setattr(gcomp, "_POINT_BLOCK", block)
        assert max(1, gcomp._POINT_BLOCK // mediator_draws) == step
        assert bench_data.n % step == tail and bench_data.n > step
        run = dict(SHARED, draws=3, mediator_draws=mediator_draws)
        blocked = _run_grid(bench_data, self.SETTINGS, threads=threads, **run)
        monkeypatch.setattr(gcomp, "_POINT_BLOCK", bench_data.n * mediator_draws)
        whole = _run_grid(bench_data, self.SETTINGS, threads=1, **run)
        assert_bitwise_equal(blocked, whole)

    def test_draw_memory_does_not_grow_with_mediator_draws(self, bench_data):
        peaks = {}
        for mediator_draws in (8, 64, 512):
            engine = gcomp._Engine(bench_data, [SensitivitySetting(route="benchmark_raw")],
                                   draws=1, burn_in=0, mediator_draws=mediator_draws, seed=5)
            engine.run_draw(0)
            tracemalloc.start()
            try:
                engine.run_draw(0)
                peaks[mediator_draws] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # measured with numpy 2.4 on the 400-unit bench_data: 0.30, 0.71 and 0.71 MB
        # here (from 8 to 64 the walk starts the sum's lanes and fills its block),
        # against 0.32, 1.92 and 10.65 MB when a draw held all n * mediator_draws points
        assert peaks[64] <= 3 * peaks[8]
        assert peaks[512] <= 1.1 * peaks[64]
