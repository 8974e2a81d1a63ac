import math

import numpy as np
import pytest

from bridgebound._kernels import normal_logpdf
from bridgebound.errors import BridgeboundError, NumericalFailure
from bridgebound.linear_bayes import (LinearModelDraw, NIGParams, default_prior,
                                      nig_update, posterior_sigma2_mean, sample_draw)

from conftest import rng


def unit_prior(q=1):
    return NIGParams(mean=np.zeros(q), precision_matrix=np.eye(q),
                     shape=1.0, scale=1.0)


def test_single_observation_hand_update():
    # one row, unit prior: precision 1+1, mean solve(2, 2) = 1,
    # shape 1 + 1/2, scale 1 + (4 + 0 - 2)/2 = 2
    post = nig_update(unit_prior(), np.array([[1.0]]), np.array([2.0]))
    assert post.precision_matrix[0, 0] == 2.0
    assert math.isclose(post.mean[0], 1.0, rel_tol=1e-15)
    assert post.shape == 1.5
    assert math.isclose(post.scale, 2.0, rel_tol=1e-15)


def test_empty_update_returns_prior():
    prior = unit_prior(3)
    post = nig_update(prior, np.empty((0, 3)), np.empty(0))
    assert np.array_equal(post.mean, prior.mean)
    assert np.array_equal(post.precision_matrix, prior.precision_matrix)
    assert post.shape == prior.shape and post.scale == prior.scale


def test_batch_equals_sequential():
    r = rng(10)
    n, q = 60, 3
    x = r.standard_normal((n, q))
    y = x @ np.array([1.0, -2.0, 0.5]) + r.standard_normal(n)
    batch = nig_update(unit_prior(q), x, y)
    seq = unit_prior(q)
    for i in range(n):
        seq = nig_update(seq, x[i : i + 1], y[i : i + 1])

    def rel(a, b):
        return np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))

    assert rel(seq.mean, batch.mean) <= 1e-10
    assert rel(seq.precision_matrix, batch.precision_matrix) <= 1e-10
    assert abs(seq.shape - batch.shape) <= 1e-10 * batch.shape
    assert abs(seq.scale - batch.scale) <= 1e-10 * batch.scale


def test_sample_moments_match_closed_form():
    # sigma2 ~ IG(shape, scale): mean = scale/(shape-1)
    params = NIGParams(mean=np.array([1.0, -1.0]),
                       precision_matrix=np.diag([4.0, 2.0]),
                       shape=3.0, scale=2.0)
    r = rng(11)
    draws = [sample_draw(params, r) for _ in range(100_000)]
    sig2 = np.array([d.sigma2 for d in draws])
    betas = np.stack([d.beta for d in draws])
    assert abs(sig2.mean() - 1.0) <= 0.02
    assert np.all(np.abs(betas.mean(axis=0) - params.mean) <= 0.02)
    # var(beta_j) = E[sigma2] / precision_jj
    assert np.allclose(betas.var(axis=0), [1.0 / 4.0, 1.0 / 2.0], rtol=0.05)


def test_sample_draw_deterministic_in_seed():
    params = nig_update(unit_prior(2), rng(12).standard_normal((30, 2)),
                        rng(13).standard_normal(30))
    d1 = sample_draw(params, rng(99))
    d2 = sample_draw(params, rng(99))
    assert d1.sigma2 == d2.sigma2
    assert np.array_equal(d1.beta, d2.beta)


def test_posterior_concentrates_with_huge_precision():
    params = NIGParams(mean=np.array([2.0]), precision_matrix=np.array([[1e14]]),
                       shape=50.0, scale=1.0)
    r = rng(14)
    for _ in range(20):
        d = sample_draw(params, r)
        assert abs(d.beta[0] - 2.0) < 1e-5


def test_posterior_mean_tracks_ols_on_large_sample():
    r = rng(15)
    n, q = 10_000, 3
    x = np.column_stack([np.ones(n), r.standard_normal((n, q - 1))])
    truth = np.array([0.5, -1.0, 2.0])
    y = x @ truth + r.standard_normal(n)
    post = nig_update(default_prior(q), x, y)
    ols, *_ = np.linalg.lstsq(x, y, rcond=None)
    sig2 = posterior_sigma2_mean(post)
    sd = np.sqrt(sig2 * np.diag(np.linalg.inv(post.precision_matrix)))
    assert np.all(np.abs(post.mean - ols) <= 4.0 * sd)


def test_posterior_sigma2_mean_formula_and_guard():
    params = NIGParams(mean=np.zeros(1), precision_matrix=np.eye(1),
                       shape=3.0, scale=4.0)
    assert posterior_sigma2_mean(params) == 2.0
    shallow = NIGParams(mean=np.zeros(1), precision_matrix=np.eye(1),
                        shape=1.0, scale=4.0)
    with pytest.raises(BridgeboundError, match="sigma2 mean undefined"):
        posterior_sigma2_mean(shallow)


def test_prior_validation():
    with pytest.raises(BridgeboundError, match="shape must be positive"):
        NIGParams(mean=np.zeros(2), precision_matrix=np.eye(2), shape=-1.0, scale=1.0)
    with pytest.raises(BridgeboundError, match="scale must be positive"):
        NIGParams(mean=np.zeros(2), precision_matrix=np.eye(2), shape=1.0, scale=0.0)
    with pytest.raises(BridgeboundError, match="mean has length 3"):
        NIGParams(mean=np.zeros(3), precision_matrix=np.eye(2), shape=1.0, scale=1.0)
    with pytest.raises(BridgeboundError, match="design has 3 columns"):
        nig_update(unit_prior(2), np.ones((5, 3)), np.ones(5))


@pytest.mark.parametrize("diag", [1.0, 0.5, 4.0, 3e5])
def test_precision_symmetry_tolerance_boundary(diag):
    # the tolerance is 1e-8 * max(1, max |entry|); an asymmetry of exactly
    # that passes and the next float above it fails
    tol = 1e-8 * max(1.0, diag)

    def params(gap):
        prec = np.array([[diag, 0.0], [gap, diag]])
        return NIGParams(mean=np.zeros(2), precision_matrix=prec, shape=1.0, scale=1.0)

    assert params(tol).dim == 2
    with pytest.raises(BridgeboundError, match=r"^precision matrix is not symmetric$"):
        params(np.nextafter(tol, np.inf))


def test_default_prior_shape():
    prior = default_prior(8)
    assert prior.dim == 8
    assert np.array_equal(prior.precision_matrix, 1e-2 * np.eye(8))
    assert prior.shape == 2.0 and prior.scale == 2.0


def test_draw_rejects_bad_variance():
    # every mediator law comes from a draw, so this is the check that keeps
    # the bridge pair's variance positive and finite
    for sigma2 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(BridgeboundError, match="sigma2 must be positive"):
            LinearModelDraw(np.zeros(3), sigma2)


def test_normal_log_density_values():
    # the kernel does not check the variance; LinearModelDraw rejects a
    # non-positive or non-finite one (test_draw_rejects_bad_variance)
    # at x = mean with var = 1/(2 pi) the constant cancels the exponent
    assert abs(normal_logpdf(0.7, 0.7, 1.0 / (2.0 * math.pi))) <= 1e-15
    assert math.isclose(normal_logpdf(0.0, 0.0, 1.0),
                        -0.9189385332046727, rel_tol=1e-15)
    # symmetric around the mean; use 0 so both offsets are the same float
    assert normal_logpdf(0.83, 0.0, 2.3) == normal_logpdf(-0.83, 0.0, 2.3)


def test_prior_shape_and_entry_refusals():
    with pytest.raises(BridgeboundError, match=r"^precision matrix must be square, got \(2, 3\)$"):
        NIGParams(mean=np.zeros(2), precision_matrix=np.ones((2, 3)), shape=1.0, scale=1.0)
    with pytest.raises(BridgeboundError, match=r"^precision matrix must be square, got \(2,\)$"):
        NIGParams(mean=np.zeros(2), precision_matrix=np.ones(2), shape=1.0, scale=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(BridgeboundError, match="^non-finite entries in prior parameters$"):
            NIGParams(mean=np.array([0.0, bad]), precision_matrix=np.eye(2),
                      shape=1.0, scale=1.0)


def test_indefinite_precision_is_numerical_failure():
    # symmetric, so NIGParams takes it; the Cholesky factor in both the update
    # and the draw refuses it
    indefinite = NIGParams(mean=np.zeros(2), precision_matrix=-np.eye(2), shape=2.0, scale=2.0)
    with pytest.raises(NumericalFailure, match="^precision matrix not positive definite: "):
        nig_update(indefinite, np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(NumericalFailure, match="^precision matrix not positive definite: "):
        sample_draw(indefinite, rng(1))


def test_update_refuses_mismatched_or_non_finite_data():
    with pytest.raises(BridgeboundError, match="^5 design rows but 4 responses$"):
        nig_update(unit_prior(2), np.ones((5, 2)), np.ones(4))
    design = np.ones((3, 2))
    design[1, 0] = math.nan
    with pytest.raises(NumericalFailure, match="^non-finite values in design or response$"):
        nig_update(unit_prior(2), design, np.ones(3))
    with pytest.raises(NumericalFailure, match="^non-finite values in design or response$"):
        nig_update(unit_prior(2), np.ones((3, 2)), np.array([1.0, math.inf, 0.0]))


@pytest.mark.parametrize("x_scale,y_scale", [(1.0, 1e155), (1.0, 1e300), (1e200, 1.0)])
def test_overflowing_finite_data_fails_quietly(x_scale, y_scale):
    # finite responses whose squares overflow, or a design whose Gram does: the
    # update refuses the scale as a NumericalFailure, and no RuntimeWarning
    # escapes (this suite makes them errors)
    response = y_scale * np.linspace(1.0, 3.0, 2000)
    design = np.column_stack([np.ones(2000), x_scale * np.linspace(-1.0, 1.0, 2000)])
    with pytest.raises(NumericalFailure, match="^posterior scale degenerated to nan$"):
        nig_update(default_prior(2), design, response)
