import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from bridgebound.bridge import (MediatorLaw, MediatorModel, OutcomeModel, bridge_log_pair,
                               outcome_design)
from bridgebound.errors import BridgeboundError
from bridgebound.linear_bayes import LinearModelDraw, default_prior, nig_update, sample_draw

from conftest import rng


def log_pair(m, x, beta, sigma2=1.0):
    law = MediatorLaw.from_draw(x, LinearModelDraw(beta, sigma2))
    return bridge_log_pair(np.asarray(m, dtype=np.float64), law)


def test_from_draw_shift_is_arm_coefficient():
    x = np.array([[1.0, 2.0], [0.0, -1.0]])
    law = MediatorLaw.from_draw(x, LinearModelDraw([0.5, 1.2, 0.8, -0.4], 0.3))
    assert law.shift == 1.2 and law.sigma2 == 0.3
    assert np.allclose(law.mean0, [0.5 + 0.8 - 0.8, 0.5 + 0.4])
    with pytest.raises(BridgeboundError, match="mediator beta has length 3"):
        MediatorLaw.from_draw(x, LinearModelDraw([0.5, 1.2, 0.8], 0.3))


@pytest.mark.parametrize("name", ["bench_data", "p0_data"])
def test_model_draw_stream_order(request, name):
    # the pooled model's contract: its posterior is the (1, a, x) update of the
    # default prior, and a draw is one sample_draw read through from_draw, so it
    # takes exactly sample_draw's variates from the generator
    data = request.getfixturevalue(name)
    model = MediatorModel.fit(data)
    design = np.column_stack([np.ones(data.n), data.treatment, data.covariates])
    want = nig_update(default_prior(data.p + 2), design, data.mediator)
    assert np.array_equal(model.posterior.mean, want.mean)
    assert np.array_equal(model.posterior.precision_matrix, want.precision_matrix)
    assert (model.posterior.shape, model.posterior.scale) == (want.shape, want.scale)
    assert np.array_equal(model.covariates, data.covariates)

    ours, theirs = rng(12), rng(12)
    for _ in range(3):
        got = model.draw(ours)
        ref = MediatorLaw.from_draw(data.covariates, sample_draw(model.posterior, theirs))
        assert np.array_equal(got.mean0, ref.mean0)
        assert (got.shift, got.sigma2) == (ref.shift, ref.sigma2)
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("name", ["bench_data", "p0_data"])
def test_outcome_model_draw_stream_order(request, name):
    # the outcome model's contract: a draw updates the default prior with Y on
    # the frozen layout at the observed mediators, arms and bridge pair, written
    # into the model's one buffer, then takes one sample_draw's variates
    data = request.getfixturevalue(name)
    model = OutcomeModel.build(data)
    assert model.width == 8 and model.design.shape == (data.n, 8)
    l0, l1 = bridge_log_pair(data.mediator, MediatorModel.fit(data).draw(rng(5)))
    design = outcome_design(data.mediator, data.treatment.astype(np.float64), l0, l1,
                            np.empty((data.n, 8)))
    posterior = nig_update(default_prior(8), design, data.outcome)

    ours, theirs = rng(12), rng(12)
    for _ in range(3):
        got, beta = model.draw(l0, l1, ours)
        assert got is model.design and np.array_equal(got, design)
        assert np.array_equal(beta, sample_draw(posterior, theirs).beta)
        assert ours.bit_generator.state == theirs.bit_generator.state
    effect = model.arm_effect(beta)
    assert type(effect) is float and effect == beta[2]


def test_zero_shift_collapses_arms():
    x = rng(3).standard_normal((40, 2))
    beta = np.array([0.3, 0.0, 1.0, -2.0])
    m = rng(4).standard_normal(40)
    l0, l1 = log_pair(m, x, beta, 0.7)
    assert np.array_equal(np.exp(l0), np.exp(l1))
    assert np.array_equal(l0, l1)


def test_frozen_standard_normal_values():
    # unit-variance model, mean0 = 0, shift = 1, evaluated at m = 0
    l0, l1 = log_pair([0.0], np.array([[0.0]]), [0.0, 1.0, 0.0])
    assert math.isclose(math.exp(l0[0]), 0.3989422804014327, rel_tol=1e-15)
    assert math.isclose(math.exp(l1[0]), 0.24197072451914337, rel_tol=1e-15)


def test_log_pair_matches_reference_density():
    r = rng(5)
    m = r.standard_normal(200)
    mean0 = r.standard_normal(200)
    l0, l1 = bridge_log_pair(m, MediatorLaw(mean0, 0.9, 1.7))
    ref0 = stats.norm.logpdf(m, loc=mean0, scale=math.sqrt(1.7))
    ref1 = stats.norm.logpdf(m, loc=mean0 + 0.9, scale=math.sqrt(1.7))
    assert np.max(np.abs(l0 - ref0)) <= 1e-12
    assert np.max(np.abs(l1 - ref1)) <= 1e-12


def test_log_pair_shape_contract():
    x = rng(6).standard_normal((5, 2))
    l0, l1 = log_pair(np.zeros(5), x, [0.0, 1.0, 0.2, 0.1])
    assert l0.shape == l1.shape == (5,)
    # one covariate row broadcasts across many mediator values
    f0, f1 = log_pair(np.linspace(-1, 1, 7), x[:1], [0.0, 1.0, 0.2, 0.1])
    assert f0.shape == f1.shape == (7,)


@pytest.mark.parametrize("shape", [(5,), (5, 3)], ids=["column", "grid"])
def test_log_pair_broadcast_matches_rows(shape):
    # law.mean0 runs along m's first axis; each row is its own unit's pair
    r = rng(7)
    law = MediatorLaw(r.standard_normal(5), 0.8, 0.6)
    m = r.standard_normal(shape)
    l0, l1 = bridge_log_pair(m, law)
    assert l0.shape == l1.shape == shape
    for i in range(5):
        row = MediatorLaw(law.mean0[i:i + 1], 0.8, 0.6)
        r0, r1 = bridge_log_pair(np.atleast_1d(m[i]), row)
        assert np.array_equal(l0[i], r0.reshape(l0[i].shape))
        assert np.array_equal(l1[i], r1.reshape(l1[i].shape))


def test_log_pair_one_mean_against_many_values():
    law = MediatorLaw(np.array([0.4]), -1.1, 2.5)
    m = np.linspace(-3.0, 3.0, 9)
    l0, l1 = bridge_log_pair(m, law)
    for j in range(9):
        r0, r1 = bridge_log_pair(m[j:j + 1], law)
        assert l0[j] == r0[0] and l1[j] == r1[0]


def test_arm_enters_only_as_its_own_column():
    # OutcomeModel.arm_effect rests on this: E[Y(0, M(0))] = E[Y(1, M(0))] - beta_a
    r = rng(8)
    m, l0, l1 = (r.standard_normal(200) for _ in range(3))
    diff = (outcome_design(m, 1.0, l0, l1, np.empty((200, 8)))
            - outcome_design(m, 0.0, l0, l1, np.empty((200, 8))))
    assert np.array_equal(diff, np.tile(np.eye(8)[2], (200, 1)))


def test_outcome_design_frozen_rows():
    row = outcome_design(np.array([0.0]), 1.0, np.array([-0.5]), np.array([-0.7]),
                         np.empty((1, 8)))[0]
    assert np.array_equal(row, [1.0, 0.0, 1.0, -0.5, -0.7, 0.0, -0.0, 0.35])
    row = outcome_design(np.array([2.0]), 1.0, np.array([-1.0]), np.array([-2.0]),
                         np.empty((1, 8)))[0]
    assert np.array_equal(row, [1.0, 2.0, 1.0, -1.0, -2.0, -2.0, -4.0, 2.0])
    assert row.shape == (8,)


@given(st.floats(0.1, 4.0), st.floats(-3.0, 3.0))
def test_midpoint_symmetry(shift, m_scale):
    # halfway between the arm means the two log scores coincide exactly
    mid = shift / 2.0
    l0, l1 = bridge_log_pair(np.array([mid]), MediatorLaw(np.array([0.0]), shift, 1.3))
    assert l0[0] == l1[0]
    row = outcome_design(np.array([mid * m_scale]), 0.0, l0, l1, np.empty((1, 8)))[0]
    assert row[3] == row[4] and row[5] == row[6]
