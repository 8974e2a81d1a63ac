import math

import numpy as np
import pytest

from bridgebound.calibration import benchmark_envelope
from bridgebound.envelope import xi_pointwise
from bridgebound.errors import (BridgeboundError, ConfigError,
                                VerificationFailure)
import bridgebound.gcomp as gcomp
from bridgebound.gcomp import (DeltaPrior, SensitivitySetting, _delta_base,
                               _run_grid, counterfactual_mediator_draws, run,
                               sweep, check_sweep_rows)

from conftest import rng


class TestCounterfactualDraws:
    def test_arm_means(self):
        mean0 = np.array([1.5])
        m0, _, _ = counterfactual_mediator_draws(mean0, 0.7, 0.25, 0, 10_000, rng(1))
        m1, _, _ = counterfactual_mediator_draws(mean0, 0.7, 0.25, 1, 10_000, rng(2))
        assert abs(m0.mean() - 1.5) <= 0.03
        assert abs(m1.mean() - 2.2) <= 0.03

    def test_concentrates_at_tiny_variance(self):
        mean0 = np.array([0.4, -0.6, 2.0])
        m, _, _ = counterfactual_mediator_draws(mean0, 1.0, 1e-12, 1, 4, rng(3))
        assert np.allclose(m, np.repeat(mean0 + 1.0, 4), atol=1e-5)

    def test_bridge_pair_orders_by_proximity(self):
        mean0 = np.full(50, 0.2)
        shift, sig2 = 0.9, 0.5
        m, l0, l1 = counterfactual_mediator_draws(mean0, shift, sig2, 0, 3, rng(4))
        d0 = np.abs(m - np.repeat(mean0, 3))
        d1 = np.abs(m - np.repeat(mean0 + shift, 3))
        assert np.array_equal(d0 < d1, l0 > l1)

    def test_unit_major_layout(self):
        mean0 = np.array([0.0, 100.0])
        m, _, _ = counterfactual_mediator_draws(mean0, 0.0, 1e-4, 0, 3, rng(5))
        assert np.all(np.abs(m[:3]) < 1.0) and np.all(np.abs(m[3:] - 100.0) < 1.0)


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
        with pytest.raises(ConfigError, match=f"delta prior {name} must be a finite number > 0"):
            DeltaPrior(kind="beta", **{name: value})
        DeltaPrior(kind="beta", **{name: 3})


class TestSettingValidation:
    def test_route_checked(self):
        with pytest.raises(ConfigError):
            SensitivitySetting(route="anchor")

    def test_parameter_ranges(self):
        with pytest.raises(BridgeboundError, match="lambda0 must be >= 1"):
            SensitivitySetting(lambda0=0.5)
        with pytest.raises(BridgeboundError, match="kappa1 must be >= 1"):
            SensitivitySetting(kappa1=0.99)
        with pytest.raises(BridgeboundError, match="k0 must lie in"):
            SensitivitySetting(k0=1.5)
        with pytest.raises(BridgeboundError, match="g1 must be >= 1"):
            SensitivitySetting(g1=0.0)
        with pytest.raises(BridgeboundError, match="gamma_cap must be >= 1"):
            SensitivitySetting(gamma_cap=0.9)

    @pytest.mark.parametrize("name,value,message", [
        ("lambda0", np.nan, "lambda0 must be >= 1"),
        ("kappa1", np.nan, "kappa1 must be >= 1"),
        ("k0", np.nan, "k0 must lie in"),
        ("g0", np.nan, "g0 must be >= 1"),
        ("gamma_cap", np.nan, "gamma_cap must be >= 1"),
        ("lambda1", np.inf, "lambda1 must be finite"),
        ("gamma_cap", np.inf, "gamma_cap must be finite"),
    ])
    def test_nan_and_infinite_parameters(self, name, value, message):
        with pytest.raises(BridgeboundError, match=message):
            SensitivitySetting(**{name: value})

    def test_infinite_amplification_and_ratio_allowed(self):
        SensitivitySetting(kappa0=np.inf, kappa1=np.inf, g0=np.inf, g1=np.inf)

    @pytest.mark.parametrize("name", ["comonotone", "pooled_gamma"])
    @pytest.mark.parametrize("value", ["false", "true", 1, 0, None, np.bool_(True)])
    def test_flags_must_be_booleans(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be true or false"):
            SensitivitySetting(route="benchmark_raw", **{name: value})


def run_small(data, setting, seed=5, draws=20, **kw):
    kw.setdefault("burn_in", 3)
    kw.setdefault("mediator_draws_per_unit", 8)
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
                  mediator_draws_per_unit=25, seed=42)
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
        # pooling replaces every point's gamma with the arm's max, so the mean
        # of 1/gamma the closed form takes is 1/gamma_max, on every draw
        setting = SensitivitySetting(route="benchmark_raw", lambda0=1.3, kappa0=1.5,
                                     kappa1=2.0, pooled_gamma=True)
        rec = run_small(bench_data, setting).records
        for arm, lam, kappa in ((0, 1.3, 1.5), (1, 1.0, 2.0)):
            expected = [benchmark_envelope(eta, 1.0 / gmax, lam, kappa) for eta, gmax
                        in zip(rec[f"eta_hat_{arm}"], rec[f"gamma_max_{arm}"])]
            assert np.array_equal(rec[f"xi_bar_{arm}"], expected)

    def test_envelope_matches_mean_of_pointwise_bounds(self, bench_data, monkeypatch):
        # reference: the fsum mean of xi(lambda * eta_hat, kappa * gamma_i) over
        # the gamma points the engine computed, in its call order
        fitted = []
        gamma_fit = gcomp.estimate_benchmark_gamma

        def recording(*args, **kwargs):
            fitted.append(gamma_fit(*args, **kwargs))
            return fitted[-1]

        monkeypatch.setattr(gcomp, "estimate_benchmark_gamma", recording)
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

    def test_config_validation(self, null_data):
        with pytest.raises(ConfigError):
            run_small(null_data, SensitivitySetting(), draws=0)
        with pytest.raises(ConfigError):
            run_small(null_data, SensitivitySetting(), burn_in=-1)
        with pytest.raises(ConfigError):
            run_small(null_data, SensitivitySetting(), mediator_draws_per_unit=0)


class TestSweep:
    def test_singleton_grid_matches_run(self, bench_data):
        base = SensitivitySetting(route="benchmark_raw", kappa0=1.5, kappa1=1.5)
        single = run_small(bench_data, base)
        swept = sweep(bench_data, [base], "kappa", [1.5], draws=20, burn_in=3,
                      mediator_draws_per_unit=8, seed=5)[0]
        for name in single.field_order:
            assert np.array_equal(single.records[name],
                                  swept.results[0].records[name])

    def test_kappa_sweep_contracts(self, bench_data):
        base = SensitivitySetting(route="benchmark_raw")
        swept = sweep(bench_data, [base], "kappa", [1.0, 1.5, 2.0, 3.0], draws=20,
                      burn_in=3, mediator_draws_per_unit=8, seed=5)[0]
        widths = [row["half_width"] for row in swept.rows]
        centers = {row["si_center"] for row in swept.rows}
        assert widths == sorted(widths)
        assert len(centers) == 1

    def test_g_sweep_zero_at_unit_ratio(self, null_data):
        base = SensitivitySetting(route="residual_budget", k0=0.5, k1=0.5)
        swept = sweep(null_data, [base], "g", [1.0, 1.5, 2.0], draws=15, burn_in=2,
                      mediator_draws_per_unit=6, seed=5)[0]
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


SHARED = dict(draws=12, burn_in=2, mediator_draws_per_unit=6, seed=5)
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
            SensitivitySetting(route="si_anchor"),
        ]),
    ])
    def test_mixed_bases_match_each_base_alone(self, bench_data, axis, grid, bases):
        together = sweep(bench_data, bases, axis, grid, **SHARED)
        assert len(together) == len(bases)
        for base, swept in zip(bases, together):
            alone = sweep(bench_data, [base], axis, grid, **SHARED)[0]
            assert swept.base_setting == base and swept.rows == alone.rows
            for res, ref in zip(swept.results, alone.results):
                assert res.field_order == ref.field_order
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
        # one control-law and one treated-law call per draw, for all six settings
        assert len(calls) == 2 * SHARED["draws"]

    def test_pooled_and_unpooled_share_one_gamma_fit(self, bench_data, monkeypatch):
        calls = []
        gamma_fit = gcomp.estimate_benchmark_gamma

        def counting(*args, **kwargs):
            calls.append(1)
            return gamma_fit(*args, **kwargs)

        monkeypatch.setattr(gcomp, "estimate_benchmark_gamma", counting)
        bases = [SensitivitySetting(route="benchmark_raw"),
                 SensitivitySetting(route="benchmark_raw", pooled_gamma=True),
                 SensitivitySetting(route="benchmark_raw", comonotone=True,
                                    pooled_gamma=True)]
        sweep(bench_data, bases, "kappa", [1.0, 2.0], **SHARED)
        # one fit per arm per draw, shared by every setting with the same cap
        assert len(calls) == 2 * SHARED["draws"]

    def test_every_base_checked_before_any_draw(self, bench_data, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a draw ran before the bases were checked")

        monkeypatch.setattr(gcomp._Engine, "run_draw", fail)
        bases = [SensitivitySetting(route="benchmark_raw"),
                 SensitivitySetting(route="residual_budget")]
        with pytest.raises(ConfigError, match="does not apply to route 'residual_budget'"):
            sweep(bench_data, bases, "kappa", [1.0, 2.0], **SHARED)
