"""Each kernel against an independent reference: math.fsum for the sums, an
explicit design product for the outcome mean, the closed-form normal log
density, and the brute-force scan for the density-ratio sup."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bridgebound._kernels import (_LANES, comp_mean, comp_sum,
                                  gamma_sup_logratio, gamma_sup_logratio_brute,
                                  normal_logpdf, outcome_mean_sum)

from conftest import rng


def test_comp_sum_matches_fsum_on_cancellation():
    x = np.array([1e16, 1.0, -1e16, 1.0])
    assert comp_sum(x) == math.fsum(x) == 2.0
    # long enough for the lane-folded path; a period of 3 puts big and small
    # values in every lane, so each lane loses its ones without compensation
    long = np.tile([1e16, 1.0, -1e16], 3 * _LANES)
    assert comp_sum(long) == math.fsum(long) == 3.0 * _LANES


def test_comp_sum_empty_and_large():
    assert comp_sum(np.array([])) == 0.0
    x = rng(1).standard_normal(100_000)
    exact = math.fsum(x)
    assert abs(comp_sum(x) - exact) <= 1e-10 * max(1.0, abs(exact))


def test_comp_sum_overflow_gives_ieee_sum():
    # fsum raises on these; the plain sum's inf or nan reaches the output check
    for n in (2, 3 * _LANES):
        big = np.full(n, 1e308)
        assert comp_sum(big) == math.inf and comp_sum(-big) == -math.inf
        assert math.isnan(comp_sum(np.resize([math.inf, -math.inf], n)))


@given(st.lists(st.floats(min_value=-1e8, max_value=1e8,
                          allow_nan=False), min_size=1, max_size=300))
def test_comp_sum_tracks_fsum(values):
    x = np.asarray(values)
    exact = math.fsum(x)
    assert abs(comp_sum(x) - exact) <= 1e-9 * max(1.0, abs(exact))


def test_comp_mean_simple():
    assert comp_mean(np.array([2.0, 2.0, 2.0])) == 2.0


def test_normal_logpdf_matches_numpy_reference():
    x = rng(2).standard_normal(500)
    mean = rng(3).standard_normal(500)
    var = np.float64(1.7)
    got = normal_logpdf(x, mean, var)
    direct = -0.5 * np.log(2 * np.pi * var) - (x - mean) ** 2 / (2 * var)
    assert np.allclose(got, direct, atol=1e-12)


def test_outcome_mean_sum_equals_design_dot():
    r = rng(4)
    m, l0, l1 = (r.standard_normal(4000) for _ in range(3))
    beta = r.standard_normal(8)
    got = outcome_mean_sum(m, l0, l1, beta)
    for a in (0.0, 1.0):
        design = np.column_stack([np.ones_like(m), m, np.full_like(m, a), l0, l1,
                                  m * l0, m * l1, l0 * l1])
        exact = math.fsum(design @ beta)
        if a == 1.0:
            assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact))
        else:
            # the kernel evaluates a = 1; a enters only as beta[2] * a
            mean0 = exact / m.size
            assert abs(got / m.size - beta[2] - mean0) <= 1e-9 * max(1.0, abs(mean0))


class TestGammaSupLogratio:
    def brute_and_fast(self, mu_c, sc, mu_r, sr, w):
        fast = gamma_sup_logratio(mu_c, np.float64(sc), mu_r, np.float64(sr), w)
        brute = gamma_sup_logratio_brute(mu_c, np.float64(sc), mu_r, np.float64(sr), w)
        return fast, brute

    @pytest.mark.parametrize("sc,sr", [(0.8, 1.0), (1.0, 0.8), (1.0, 1.0), (0.3, 2.5)])
    def test_matches_brute_scan(self, sc, sr):
        r = rng(5)
        w = np.sort(r.standard_normal(600))
        mu_c = r.standard_normal(3000) * 0.8
        mu_r = mu_c + 0.2 * r.standard_normal(3000)
        fast, brute = self.brute_and_fast(mu_c, sc, mu_r, sr, w)
        assert np.array_equal(fast, brute)

    def test_small_grids_match_brute(self):
        r = rng(6)
        for n in (1, 2, 3, 7):
            w = np.sort(r.standard_normal(n))
            mu_c = r.standard_normal(40)
            mu_r = r.standard_normal(40)
            fast, brute = self.brute_and_fast(mu_c, 0.9, mu_r, 1.1, w)
            assert np.array_equal(fast, brute)

    def test_identical_laws_give_zero(self):
        mu = np.array([0.3, -1.2, 0.0])
        w = np.sort(rng(7).standard_normal(50))
        fast, _ = self.brute_and_fast(mu, 1.3, mu.copy(), 1.3, w)
        assert np.allclose(fast, 0.0, atol=1e-14)

    def test_two_normal_closed_form(self):
        # ratio N(w; 0.5, 1) / N(w; 0, 1) = exp(0.5 w - 0.125), sup on [-3, 3] at w=3
        w = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        sup = gamma_sup_logratio(np.full(1, 0.5), np.float64(1.0),
                                 np.zeros(1), np.float64(1.0), w)
        assert math.isclose(float(np.exp(sup[0])), math.exp(1.375), rel_tol=1e-14)

    @given(st.integers(0, 2**32 - 1))
    def test_random_geometry_matches_brute(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 120))
        if r.random() < 0.5:
            w = np.sort(r.normal(0.0, r.uniform(0.5, 2.0), n))
        else:  # rank-like grid on (0, 1], with ties
            w = np.sort(np.ceil(r.uniform(size=n) * n) / n)
        mu_c = r.normal(0.0, 1.0, 25)
        mu_r = r.normal(0.0, 1.0, 25)
        sc = float(r.uniform(0.1, 3.0))
        if r.random() < 0.5:
            sr = float(r.uniform(0.1, 3.0))
        else:  # near-equal variances: a shallow concave quadratic
            sr = sc * (1.0 + 10.0 ** r.uniform(-3.0, 0.5))
        fast, brute = self.brute_and_fast(mu_c, sc, mu_r, sr, w)
        assert np.array_equal(fast, brute)
