import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bridgebound import _kernels, calibration
from bridgebound.calibration import (DEFAULT_GAMMA_CAP, BenchmarkContext,
                                     benchmark_envelope,
                                     estimate_benchmark_eta,
                                     estimate_benchmark_gamma,
                                     fit_benchmark_gamma,
                                     estimate_sigma_eta, prepare_benchmark,
                                     residual_envelope)
from bridgebound.data import Dataset
from bridgebound.envelope import xi_pointwise
from bridgebound.errors import BridgeboundError, DegenerateBenchmark
from bridgebound.linear_bayes import default_prior, nig_update

from conftest import rng


def dataset_with_benchmark(w, treat=None):
    n = w.shape[0]
    if treat is None:
        treat = np.arange(n) % 2
    r = rng(41)
    return Dataset(treat, r.normal(size=n), r.normal(size=n), np.empty((n, 0)), w)


class TestPrepare:
    def test_requires_benchmark(self):
        data = Dataset(np.array([0, 0, 1, 1]), np.zeros(4), np.zeros(4),
                       np.empty((4, 0)))
        with pytest.raises(BridgeboundError, match="requires a benchmark column"):
            prepare_benchmark(data, "raw")

    def test_unknown_scale(self):
        data = dataset_with_benchmark(rng(1).uniform(size=20))
        with pytest.raises(BridgeboundError, match="unknown benchmark scale"):
            prepare_benchmark(data, "logit")

    def test_constant_benchmark_warns(self):
        data = dataset_with_benchmark(np.full(20, 3.0))
        with pytest.warns(DegenerateBenchmark):
            ctx = prepare_benchmark(data, "raw")
        assert ctx.arm_ranges == (0.0, 0.0)

    def test_raw_scale_invariant_under_linear_rescale(self):
        w = rng(2).uniform(0.0, 5.0, size=40)
        base = prepare_benchmark(dataset_with_benchmark(w), "raw")
        doubled = prepare_benchmark(dataset_with_benchmark(2.0 * w), "raw")
        assert np.array_equal(base.wprime, doubled.wprime)
        warped = prepare_benchmark(dataset_with_benchmark(np.exp(w)), "raw")
        assert not np.allclose(base.wprime, warped.wprime)

    def test_rank_scale_invariant_under_monotone_transform(self):
        w = rng(3).permutation(np.arange(40.0))
        base = prepare_benchmark(dataset_with_benchmark(w), "rank")
        warped = prepare_benchmark(dataset_with_benchmark(np.exp(w / 10.0)), "rank")
        assert np.array_equal(base.wprime, warped.wprime)
        for arm in (0, 1):
            values = base.arm_values[arm]
            assert np.array_equal(base.arm_bounds[arm], [values.min(), values.max()])
            assert np.array_equal(base.arm_bounds[arm], warped.arm_bounds[arm])


class TestEta:
    def test_recovers_known_coefficient(self):
        r = rng(4)
        n = 2000
        design = np.column_stack([np.ones(n), r.normal(size=(n, 2))])
        w = r.uniform(0.0, 5.0, size=n)
        data = dataset_with_benchmark(w, treat=np.arange(n) % 2)
        ctx = prepare_benchmark(data, "raw")
        response = design @ np.array([1.0, -0.5, 2.0]) + 0.8 * ctx.wprime \
            + 0.05 * r.normal(size=n)
        eta0, eta1 = estimate_benchmark_eta(design, response, ctx)
        for arm, eta in enumerate((eta0, eta1)):
            coef = eta / ctx.arm_ranges[arm]
            assert abs(coef - 0.8) <= 0.02

    def test_constant_within_arm_gives_zero_and_warns(self):
        # the warning fires once per run in prepare_benchmark, on either scale,
        # and never again per draw
        w = np.where(np.arange(30) % 2 == 0, 1.0, np.linspace(0.0, 2.0, 30))
        data = dataset_with_benchmark(w)
        for scale in ("raw", "rank"):
            with pytest.warns(DegenerateBenchmark, match="arm 0") as caught:
                ctx = prepare_benchmark(data, scale)
            assert len(caught) == 1
            design = np.ones((30, 1))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                eta0, eta1 = estimate_benchmark_eta(design, rng(5).normal(size=30), ctx)
            assert eta0 == 0.0 and eta1 > 0.0


class TestGamma:
    @staticmethod
    def toy_problem(coupling, n=400, seed=6):
        # l-score columns carry no mediator information here, so the reduced
        # fit cannot absorb the w ~ m coupling and the ratio must detect it
        r = rng(seed)
        m = r.normal(size=n)
        l0 = -0.9 + 0.1 * r.normal(size=n)
        l1 = -1.1 + 0.1 * r.normal(size=n)
        w = coupling * m + r.normal(size=n)
        data = dataset_with_benchmark(w)
        ctx = prepare_benchmark(data, "raw")
        pts = np.linspace(-2.0, 2.0, 50)
        pts_l0 = np.full_like(pts, -0.9)
        pts_l1 = np.full_like(pts, -1.1)
        return m, l0, l1, ctx, pts, pts_l0, pts_l1

    def test_at_least_one_everywhere(self):
        m, l0, l1, ctx, pts, pl0, pl1 = self.toy_problem(coupling=1.5)
        for arm in (0, 1):
            gam = estimate_benchmark_gamma(fit_benchmark_gamma(m, l0, l1, ctx, arm), pts, pl0, pl1)
            assert gam.shape == pts.shape
            assert np.all(gam >= 1.0) and np.all(gam <= DEFAULT_GAMMA_CAP)

    def test_near_one_when_benchmark_unrelated_to_mediator(self):
        m, l0, l1, ctx, pts, pl0, pl1 = self.toy_problem(coupling=0.0, n=2000)
        gam = estimate_benchmark_gamma(fit_benchmark_gamma(m, l0, l1, ctx, 0), pts, pl0, pl1)
        assert np.all(gam >= 1.0)
        # only estimation noise in the m coefficient separates the two fits
        assert np.max(gam) <= 1.10

    def test_cap_binds_under_strong_coupling(self):
        m, l0, l1, ctx, pts, pl0, pl1 = self.toy_problem(coupling=4.0)
        fit = fit_benchmark_gamma(m, l0, l1, ctx, 1)
        gam = estimate_benchmark_gamma(fit, pts, pl0, pl1, cap=1.5)
        assert np.max(gam) == 1.5
        unit = estimate_benchmark_gamma(fit, pts, pl0, pl1, cap=1.0)
        assert np.array_equal(unit, np.ones_like(pts))

    def test_invalid_cap(self):
        m, l0, l1, ctx, pts, pl0, pl1 = self.toy_problem(coupling=1.0, n=60)
        with pytest.raises(BridgeboundError, match="gamma cap must be finite"):
            estimate_benchmark_gamma(fit_benchmark_gamma(m, l0, l1, ctx, 0), pts, pl0, pl1,
                                     cap=0.5)

    @staticmethod
    def unblocked_gamma(m, l0, l1, ctx, arm, pm, pl0, pl1, cap):
        """One pass over all points: affine means, range sup, exp, clamp."""
        idx = ctx.arm_rows[arm]
        ones = np.ones(idx.size)
        w_arm = ctx.arm_values[arm]
        post_c = nig_update(default_prior(4), np.column_stack([ones, m[idx], l0[idx], l1[idx]]),
                            w_arm)
        post_r = nig_update(default_prior(3), np.column_stack([ones, l0[idx], l1[idx]]), w_arm)
        sig2_c = calibration.posterior_sigma2_mean(post_c)
        sig2_r = calibration.posterior_sigma2_mean(post_r)
        bc, br = post_c.mean, post_r.mean
        mu_c = bc[0] + bc[1] * pm + bc[2] * pl0 + bc[3] * pl1
        mu_r = br[0] + br[1] * pl0 + br[2] * pl1
        values = ctx.arm_values[arm]
        log_sup = _kernels.gamma_sup_logratio(mu_c, sig2_c, mu_r, sig2_r,
                                              np.array([values.min(), values.max()]))
        return np.clip(np.exp(log_sup), 1.0, cap), sig2_c < sig2_r

    @pytest.mark.parametrize("points", [10, 64, 3 * 64 + 17])
    @pytest.mark.parametrize("concave", [True, False])
    @pytest.mark.parametrize("scale", ["raw", "rank"])
    @pytest.mark.parametrize("binding_cap", [False, True])
    def test_blocked_walk_matches_one_pass(self, monkeypatch, points, concave, scale,
                                           binding_cap):
        # the points evaluated in blocks of 64, as the engine walks its envelope
        # points: one partial block, exactly one block, and a ragged fourth block
        if not concave:
            # an added regressor never raises the NIG scale, so data alone cannot make
            # the numerator variance exceed the reference one; patch the variances
            monkeypatch.setattr(calibration, "posterior_sigma2_mean",
                                lambda post: 0.4 + 0.1 * post.mean.size)
        r = rng(8)
        n = 300
        m = r.normal(size=n)
        l0 = -0.9 + 0.1 * r.normal(size=n)
        l1 = -1.1 + 0.1 * r.normal(size=n)
        ctx = prepare_benchmark(dataset_with_benchmark(2.0 * m + r.normal(size=n)), scale)
        pm = 1.5 * r.normal(size=points)
        pl0 = -0.9 + 0.1 * r.normal(size=points)
        pl1 = -1.1 + 0.1 * r.normal(size=points)
        for arm in (0, 1):
            cap = DEFAULT_GAMMA_CAP
            if binding_cap:
                free, _ = self.unblocked_gamma(m, l0, l1, ctx, arm, pm, pl0, pl1, math.inf)
                cap = float(np.median(free))
            fit = fit_benchmark_gamma(m, l0, l1, ctx, arm)
            got = np.concatenate([
                estimate_benchmark_gamma(fit, pm[lo:lo + 64], pl0[lo:lo + 64], pl1[lo:lo + 64],
                                         cap=cap)
                for lo in range(0, points, 64)])
            want, is_concave = self.unblocked_gamma(m, l0, l1, ctx, arm, pm, pl0, pl1, cap)
            assert is_concave == concave
            assert np.array_equal(got, want)
            if binding_cap:
                assert 1.0 < cap and 0 < np.count_nonzero(got == cap) < points

    @pytest.mark.parametrize("shapes", [((5,), (1,), (5,)), ((5,), (5,), (4,)),
                                        ((2, 5), (2, 5), (2, 5)), ((), (), ())])
    def test_points_must_be_one_length_vectors(self, shapes):
        m, l0, l1, ctx, _, _, _ = self.toy_problem(coupling=1.0, n=60)
        pts = [np.zeros(shape) for shape in shapes]
        with pytest.raises(BridgeboundError, match=r"pts_m, pts_l0 and pts_l1 must be 1-d arrays "
                                                   r"of one length, got shapes \["):
            estimate_benchmark_gamma(fit_benchmark_gamma(m, l0, l1, ctx, 0), *pts)


class TestEnvelopes:
    # the second argument is G = mean (gamma - 1) / gamma; a single point gamma gives
    # (gamma - 1) / gamma
    def test_benchmark_envelope_frozen(self):
        assert benchmark_envelope(2.0, 0.5 / 1.5, 1.0, 2.0) == pytest.approx(4.0 / 3.0,
                                                                            rel=1e-15)
        assert benchmark_envelope(2.0, 0.0, 3.0, 1.0) == 0.0
        widths = [benchmark_envelope(1.0, 1.0 / 2.0, 1.0, kappa)
                  for kappa in (1.0, 1.5, 2.0, 3.0)]
        assert widths == sorted(widths) and widths[0] < widths[-1]
        assert benchmark_envelope(2.0, 0.5, 1.5, math.inf) == 3.0

    def test_benchmark_envelope_validation(self):
        with pytest.raises(BridgeboundError, match="amplification factors"):
            benchmark_envelope(1.0, 0.5, 0.9, 1.0)
        with pytest.raises(BridgeboundError, match="amplification factors"):
            benchmark_envelope(1.0, 0.5, 1.0, 0.0)
        for lam, kappa in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 2.0)):
            with pytest.raises(BridgeboundError, match="amplification factors"):
                benchmark_envelope(1.0, 0.5, lam, kappa)
        for eta in (-0.1, math.nan, math.inf):
            with pytest.raises(BridgeboundError, match="eta_hat must be finite and >= 0"):
                benchmark_envelope(eta, 0.5, 1.0, 1.0)
        for gap_mean in (1.0, 1.0 + 1e-15, math.nan, -0.5):
            with pytest.raises(BridgeboundError,
                               match=r"mean of \(gamma - 1\) / gamma in \[0, 1\)"):
                benchmark_envelope(1.0, gap_mean, 1.0, 1.0)

    @pytest.mark.parametrize("kappa", [1.0, 1.3, 2.0, 7.5, math.inf])
    @pytest.mark.parametrize("cap", [1.5, DEFAULT_GAMMA_CAP, 1e6])
    def test_closed_form_matches_pointwise_mean(self, kappa, cap):
        r = rng(int(cap) + 17)
        for size in (1, 37, 5000):
            gamma = r.uniform(1.0, cap, size=size)
            gamma[r.random(size) < 0.2] = 1.0   # clamped points, as the engine has
            eta, lam = r.uniform(0.0, 4.0), r.uniform(1.0, 3.0)
            ref = math.fsum(xi_pointwise(lam * eta, kappa * g) for g in gamma) / size
            closed = benchmark_envelope(eta, math.fsum((gamma - 1.0) / gamma) / size, lam, kappa)
            assert closed == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_unit_gamma_at_unit_kappa_is_exactly_zero(self):
        gamma = np.ones(500)
        gap_mean = math.fsum((gamma - 1.0) / gamma) / 500
        for eta, lam in ((0.0, 1.0), (2.5, 1.0), (1e6, 4.0)):
            assert benchmark_envelope(eta, gap_mean, lam, 1.0) == 0.0

    @pytest.mark.parametrize("spread", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_near_unit_gamma_at_unit_kappa_is_accurate(self, spread):
        # gammas just above 1, where 1 - mean(1 / gamma) would cancel
        gamma = 1.0 + rng(29).uniform(0.0, spread, size=2000)
        eta, lam = 1.7, 1.3
        exact = (Fraction(lam) * Fraction(eta)
                 * sum((Fraction(g) - 1) / Fraction(g) for g in gamma) / len(gamma))
        closed = benchmark_envelope(eta, _kernels.comp_mean((gamma - 1.0) / gamma), lam, 1.0)
        assert abs(Fraction(closed) - exact) <= 1e-14 * exact

    def test_sigma_eta(self):
        y = rng(7).normal(size=2000) * 2.0
        assert estimate_sigma_eta(y, y) == 0.0
        noisy = estimate_sigma_eta(y, np.zeros_like(y))
        assert abs(noisy - 2.0) <= 0.1
        with pytest.raises(BridgeboundError, match="no treated rows"):
            estimate_sigma_eta(np.empty(0), np.empty(0))

    def test_residual_envelope_exact_zeros(self):
        assert residual_envelope(1.7, 0.0, 3.0) == 0.0
        assert residual_envelope(1.7, 0.8, 1.0) == 0.0

    def test_residual_envelope_frozen(self):
        assert residual_envelope(1.0, 0.25, 2.0) == 0.5
        # doubles as doubling the budgeted range
        assert residual_envelope(2.0, 0.25, 2.0) == 1.0

    def test_residual_envelope_validation(self):
        with pytest.raises(BridgeboundError, match="k must lie in"):
            residual_envelope(1.0, -0.1, 2.0)
        with pytest.raises(BridgeboundError, match="k must lie in"):
            residual_envelope(1.0, 1.5, 2.0)
        with pytest.raises(BridgeboundError, match="sigma_eta must be finite"):
            residual_envelope(-1.0, 0.5, 2.0)
        with pytest.raises(BridgeboundError, match="gamma must be >= 1"):
            residual_envelope(1.0, 0.5, 0.5)
