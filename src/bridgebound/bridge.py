"""Mediator bridge scores and the outcome-model regressor map.

The bridge score at a mediator value m is the pair of arm-specific conditional
densities (f0(m|x), f1(m|x)) under the current mediator-model draw. Log
densities are carried everywhere; exponentiation happens only where a density
value itself is needed. The outcome regressor layout is a frozen interface:
(1, m, a, l0, l1, m*l0, m*l1, l0*l1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _kernels
from .errors import BridgeboundError


def mediator_means(x: np.ndarray, beta: np.ndarray):
    """Control-arm conditional means and the treatment shift.

    The mediator model regresses on (1, a, x); beta[1] is the arm shift, so
    mean1 = mean0 + beta[1] row-wise.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape[0] != x.shape[1] + 2:
        raise BridgeboundError(
            f"mediator beta has length {beta.shape[0]}, expected {x.shape[1] + 2}"
        )
    mean0 = beta[0] + x @ beta[2:]
    return mean0, float(beta[1])


def bridge_log_pair(m: np.ndarray, mean0: np.ndarray, treat_shift: float, sigma2: float):
    """Log bridge densities (l0, l1) at mediator values m; mean0 broadcasts against m."""
    if not sigma2 > 0.0:
        raise BridgeboundError(f"mediator variance must be positive, got {sigma2}")
    m = np.ascontiguousarray(m, dtype=np.float64)
    l0 = _kernels.normal_logpdf(m, mean0, sigma2)
    l1 = _kernels.normal_logpdf(m, mean0 + treat_shift, sigma2)
    return l0, l1


def outcome_design(m: np.ndarray, a, l0: np.ndarray, l1: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Outcome-model design matrix with the frozen column order.

    Columns: 1, m, a, l0, l1, m*l0, m*l1, l0*l1. The log-score interactions are
    what lets a linear fit absorb covariate effects that enter only through the
    bridge. The arm a enters only as the beta_a * a column, with no interaction,
    so gcomp derives E[Y(0, M(0))] as E[Y(1, M(0))] - beta_a.

    The matrix is written into out, a C-ordered (n, 8) float64 array, when one
    is given: an engine passes the same buffer on every draw, so no draw maps a
    fresh multi-megabyte array.
    """
    m = np.atleast_1d(np.asarray(m, dtype=np.float64))
    l0 = np.atleast_1d(np.asarray(l0, dtype=np.float64))
    l1 = np.atleast_1d(np.asarray(l1, dtype=np.float64))
    if out is None:
        out = np.empty((m.shape[0], 8))
    out[:, 0] = 1.0
    out[:, 1] = m
    out[:, 2] = a
    out[:, 3] = l0
    out[:, 4] = l1
    np.multiply(m, l0, out=out[:, 5])
    np.multiply(m, l1, out=out[:, 6])
    np.multiply(l0, l1, out=out[:, 7])
    return out
