"""Mediator bridge scores and the outcome-model regressor map.

The bridge score at a mediator value m is the pair of arm-specific conditional
densities (f0(m|x), f1(m|x)) under the current mediator-model draw. Log
densities are carried everywhere; exponentiation happens only where a density
value itself is needed. The outcome regressor layout is a frozen interface:
(1, m, a, l0, l1, m*l0, m*l1, l0*l1).
"""

from __future__ import annotations

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


def outcome_design(m: np.ndarray, a, l0: np.ndarray, l1: np.ndarray) -> np.ndarray:
    """Outcome-model design matrix with the frozen column order.

    Columns: 1, m, a, l0, l1, m*l0, m*l1, l0*l1. The log-score interactions are
    what lets a linear fit absorb covariate effects that enter only through the
    bridge. The arm a enters only as the beta_a * a column, with no interaction,
    so gcomp derives E[Y(0, M(0))] as E[Y(1, M(0))] - beta_a.
    """
    m = np.atleast_1d(np.asarray(m, dtype=np.float64))
    l0 = np.atleast_1d(np.asarray(l0, dtype=np.float64))
    l1 = np.atleast_1d(np.asarray(l1, dtype=np.float64))
    a_col = np.broadcast_to(np.asarray(a, dtype=np.float64), m.shape)
    cols = (np.ones_like(m), m, a_col, l0, l1, m * l0, m * l1, l0 * l1)
    return np.column_stack(cols)
