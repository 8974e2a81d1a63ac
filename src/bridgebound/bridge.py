"""The mediator regression, its law, its bridge scores and the outcome regressor map.

This module owns the mediator model. MediatorModel fits the pooled conjugate
regression of M on (1, a, x), and nothing outside this module knows that
design's column order. Each posterior draw fixes one law per unit: M | a, x ~
N(mean0(x) + shift * a, sigma2), with mean0(x) = beta[0] + x . beta[2:], the
treatment shift beta[1] and one variance for both arms. MediatorLaw holds it,
and nothing outside this module reads its form. The bridge score at a mediator
value m is the pair of arm-specific conditional densities (f0(m|x), f1(m|x))
under that law. Log densities are carried everywhere; exponentiation happens
only where a density value itself is needed. The outcome regressor layout is a
frozen interface: (1, m, a, l0, l1, m*l0, m*l1, l0*l1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# linear_bayes is called through its module, as gcomp calls its layers (see gcomp)
from . import _kernels, linear_bayes
from .data import Dataset
from .errors import BridgeboundError


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
    bridge. The arm a enters only as the beta_a * a column, with no interaction,
    so gcomp derives E[Y(0, M(0))] as E[Y(1, M(0))] - beta_a.

    m, l0 and l1 are float64 columns and out a C-ordered (n, 8) float64 array:
    an engine passes the same buffer on every draw, so no draw maps a fresh
    multi-megabyte array.
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
