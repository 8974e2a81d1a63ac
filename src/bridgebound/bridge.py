"""The two working regressions, their layouts, the mediator law and its bridge scores.

This module owns both regressions a posterior draw fits, and nothing outside
it knows either design's column order.

MediatorModel fits the pooled conjugate regression of M on (1, a, x). Each
posterior draw fixes one law per unit: M | a, x ~ N(mean0(x) + shift * a,
sigma2), with mean0(x) = beta[0] + x . beta[2:], the treatment shift beta[1]
and one variance for both arms. MediatorLaw holds it, and nothing outside this
module reads its form. The bridge score at a mediator value m is the pair of
arm-specific conditional densities (f0(m|x), f1(m|x)) under that law. Log
densities are carried everywhere; exponentiation happens only where a density
value itself is needed.

OutcomeModel regresses Y on the bridge regressors in the frozen layout
(1, m, a, l0, l1, m*l0, m*l1, l0*l1) that outcome_design writes. The layout's
one other reader is _kernels.outcome_mean_sum, its evaluator at a = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# linear_bayes is called through its module, as gcomp calls its layers (see gcomp)
from . import _kernels, linear_bayes
from .data import Dataset
from .errors import BridgeboundError

# the columns of the outcome layout (see outcome_design)
_OUTCOME_WIDTH = 8


@dataclass(frozen=True)
class MediatorLaw:
    """One draw's pooled mediator law: a control-arm mean per unit in mean0,
    and a positive, finite sigma2, as every LinearModelDraw's is."""

    mean0: np.ndarray
    shift: float
    sigma2: float

    @classmethod
    def from_draw(cls, x: np.ndarray, draw) -> "MediatorLaw":
        """The law of a mediator-model draw on the (n, p) covariates x; the
        model regresses on (1, a, x), so beta[1] is the arm shift."""
        beta = draw.beta
        if beta.shape[0] != x.shape[1] + 2:
            raise BridgeboundError(
                f"mediator beta has length {beta.shape[0]}, expected {x.shape[1] + 2}"
            )
        return cls(beta[0] + x @ beta[2:], float(beta[1]), draw.sigma2)

    def collapsed(self) -> "MediatorLaw":
        """The one-unit law at the compensated mean of mean0.

        At m = mean0_i + shift * arm + sqrt(sigma2) * z the bridge pair depends
        on z alone and the outcome regressors are affine in m, so the unit
        average of the outcome mean is its value under this law: a polynomial
        of degree <= 4 in z, which the 3-node Gauss-Hermite rule integrates
        exactly.
        """
        return MediatorLaw(np.array([_kernels.comp_mean(self.mean0)]), self.shift,
                           self.sigma2)

    def rows(self, block: slice) -> "MediatorLaw":
        """The law of the units in block."""
        return MediatorLaw(self.mean0[block], self.shift, self.sigma2)

    def sample(self, arm: int, z: np.ndarray) -> np.ndarray:
        """Mediator values mean0 + shift * arm + sqrt(sigma2) * z from arm's law;
        z is an (n, k) standard-normal grid, row i for unit i."""
        return (self.mean0[:, None] + self.shift * arm) + np.sqrt(self.sigma2) * z


@dataclass(frozen=True)
class MediatorModel:
    """The pooled mediator regression's conjugate posterior, and the (n, p)
    covariates each draw's law is evaluated on."""

    posterior: linear_bayes.NIGParams
    covariates: np.ndarray

    @classmethod
    def fit(cls, data: Dataset) -> "MediatorModel":
        """The default prior updated with M on the design (1, a, x)."""
        design = np.column_stack([np.ones(data.n), data.treatment.astype(np.float64),
                                  data.covariates])
        prior = linear_bayes.default_prior(data.p + 2)
        return cls(linear_bayes.nig_update(prior, design, data.mediator), data.covariates)

    def draw(self, rng: np.random.Generator) -> MediatorLaw:
        """The law of one posterior draw, taking sample_draw's variates from rng."""
        return MediatorLaw.from_draw(self.covariates,
                                     linear_bayes.sample_draw(self.posterior, rng))


@dataclass(frozen=True)
class OutcomeModel:
    """The outcome regression of Y on the bridge regressors: its prior, the data
    and the (n, 8) design buffer that every draw overwrites in full (a fresh
    multi-megabyte temporary would be mapped anew on every draw, page-faulting
    each of its pages)."""

    prior: linear_bayes.NIGParams
    data: Dataset
    design: np.ndarray

    @classmethod
    def build(cls, data: Dataset) -> "OutcomeModel":
        """The default prior on the layout's 8 columns, and the buffer for data."""
        return cls(linear_bayes.default_prior(_OUTCOME_WIDTH), data,
                   np.empty((data.n, _OUTCOME_WIDTH)))

    @property
    def width(self) -> int:
        """The number of outcome regressors."""
        return self.design.shape[1]

    def draw(self, l0: np.ndarray, l1: np.ndarray, rng: np.random.Generator):
        """(design, beta): the design on the observed bridge pair (l0, l1), and the
        coefficients of one posterior draw, taking sample_draw's variates from rng."""
        data = self.data
        design = outcome_design(data.mediator, data.treatment, l0, l1, self.design)
        posterior = linear_bayes.nig_update(self.prior, design, data.outcome)
        return design, linear_bayes.sample_draw(posterior, rng).beta

    @staticmethod
    def arm_effect(beta: np.ndarray) -> float:
        """beta_a, the outcome mean at a = 1 less that at a = 0 at any (m, x).

        The arm enters the layout only as the beta_a * a column, with no
        interaction, so E[Y(0, M(0))] is the anchor E[Y(1, M(0))] less beta_a:
        both average the same mediator points under the control law.
        """
        return float(beta[2])


def bridge_log_pair(m: np.ndarray, law: MediatorLaw):
    """Log bridge densities (l0, l1) at float64 mediator values m under law.

    law.mean0 runs along m's first axis: (n,) with (n,), (n, k) with (n,), and
    (k,) with one mean.
    """
    mean0 = law.mean0.reshape(law.mean0.shape + (1,) * (m.ndim - 1))
    l0 = _kernels.normal_logpdf(m, mean0, law.sigma2)
    l1 = _kernels.normal_logpdf(m, mean0 + law.shift, law.sigma2)
    return l0, l1


def outcome_design(m: np.ndarray, a, l0: np.ndarray, l1: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Outcome-model design matrix with the frozen column order, written into out.

    Columns: 1, m, a, l0, l1, m*l0, m*l1, l0*l1. The log-score interactions are
    what lets a linear fit absorb covariate effects that enter only through the
    bridge. The arm a enters only as the beta_a * a column, with no interaction
    (see OutcomeModel.arm_effect).

    m, l0 and l1 are float64 columns, a is a scalar or a column that the
    assignment casts (the 0/1 int8 treatment), and out is a C-ordered (n, 8)
    float64 array: OutcomeModel passes the same buffer on every draw.
    """
    out[:, 0] = 1.0
    out[:, 1] = m
    out[:, 2] = a
    out[:, 3] = l0
    out[:, 4] = l1
    np.multiply(m, l0, out=out[:, 5])
    np.multiply(m, l1, out=out[:, 6])
    np.multiply(l0, l1, out=out[:, 7])
    return out
