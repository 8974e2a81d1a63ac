"""Observable calibration of the sensitivity parameters.

Two routes map data onto (eta, gamma):

* benchmark: an observed proxy W plays the role of the missing confounder.
  eta_hat is the W coefficient in an augmented outcome regression times the
  within-arm range of W; gamma_hat is the largest fitted-density ratio of
  W | (arm, mediator, bridge) against W | (arm, bridge) over the arm's observed
  range of W'. Raw W is standardized internally (full-sample sd) so the result is
  invariant under linear rescaling of W while remaining sensitive to genuine
  re-expression; rank scale replaces W with its within-arm fractional rank and
  is invariant under any strictly increasing transform.
* residual budget: sigma_eta is the root mean squared treated-arm residual;
  the user budgets a fraction k of it (eta <= 2 * sigma_eta * sqrt(k)) and a
  selection ratio cap g.

Amplification (lambda, kappa) >= 1 scales the benchmark estimates toward "the
unobserved confounder is this many times stronger than W".
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# envelope is called through its module, as gcomp calls this one (see gcomp)
from . import _kernels, envelope
from .data import Dataset, fractional_ranks
from .errors import BridgeboundError, DegenerateBenchmark
from .linear_bayes import default_prior, nig_update, posterior_sigma2_mean

DEFAULT_GAMMA_CAP = 20.0


@dataclass(frozen=True)
class BenchmarkContext:
    """Draw-independent benchmark preprocessing for one dataset."""

    wprime: np.ndarray
    arm_rows: tuple
    arm_values: tuple     # row order, aligned with arm_rows
    arm_bounds: tuple     # [min, max] per arm, for the sup kernel
    arm_ranges: tuple


def prepare_benchmark(data: Dataset, scale: str) -> BenchmarkContext:
    if data.benchmark is None:
        raise BridgeboundError("calibration route requires a benchmark column")
    if scale == "rank":
        wprime = fractional_ranks(data)
    elif scale == "raw":
        sd = float(np.std(data.benchmark))
        if sd == 0.0:
            warnings.warn("benchmark variable is constant", DegenerateBenchmark)
            wprime = np.array(data.benchmark, dtype=np.float64)
        else:
            wprime = data.benchmark / sd
    else:
        raise BridgeboundError(f"unknown benchmark scale {scale!r}")
    rows = tuple(data.arm_indices(arm) for arm in (0, 1))
    values = tuple(np.ascontiguousarray(wprime[idx]) for idx in rows)
    bounds = tuple(np.array([v.min(), v.max()]) for v in values)
    ranges = tuple(float(hi - lo) for lo, hi in bounds)
    for arm, width in enumerate(ranges):
        if width == 0.0:
            warnings.warn(f"benchmark constant within arm {arm}", DegenerateBenchmark)
    return BenchmarkContext(wprime, rows, values, bounds, ranges)


def estimate_benchmark_eta(outcome_design: np.ndarray, response: np.ndarray,
                           context: BenchmarkContext):
    """Per-arm eta_hat from one augmented conjugate outcome regression.

    The regression adds W' to the outcome regressors; eta_hat_a is the
    posterior-mean |coefficient| times the within-arm empirical range of W'.
    """
    design = np.column_stack([outcome_design, context.wprime])
    post = nig_update(default_prior(design.shape[1]), design, response)
    coef = abs(float(post.mean[-1]))
    return coef * context.arm_ranges[0], coef * context.arm_ranges[1]


@dataclass(frozen=True)
class GammaFit:
    """One arm's two benchmark regressions, W' | (1, m, l0, l1) with posterior-mean
    coefficients coef_c and variance sig2_c, and W' | (1, l0, l1) with coef_r and
    sig2_r, plus the arm's observed range [min W', max W'] for the sup kernel."""

    coef_c: np.ndarray
    sig2_c: float
    coef_r: np.ndarray
    sig2_r: float
    bounds: np.ndarray


def fit_benchmark_gamma(obs_m: np.ndarray, obs_l0: np.ndarray, obs_l1: np.ndarray,
                        context: BenchmarkContext, arm: int) -> GammaFit:
    """Fit W' | (m, l0, l1) and W' | (l0, l1) on the arm's rows as conjugate
    Gaussian regressions, once per draw, for estimate_benchmark_gamma."""
    idx = context.arm_rows[arm]
    w_arm = context.arm_values[arm]
    ones = np.ones(idx.size)
    design_c = np.column_stack([ones, obs_m[idx], obs_l0[idx], obs_l1[idx]])
    design_r = np.column_stack([ones, obs_l0[idx], obs_l1[idx]])
    post_c = nig_update(default_prior(4), design_c, w_arm)
    post_r = nig_update(default_prior(3), design_r, w_arm)
    return GammaFit(post_c.mean, posterior_sigma2_mean(post_c),
                    post_r.mean, posterior_sigma2_mean(post_r), context.arm_bounds[arm])


def estimate_benchmark_gamma(fit: GammaFit, pts_m: np.ndarray, pts_l0: np.ndarray,
                             pts_l1: np.ndarray, cap: float = DEFAULT_GAMMA_CAP) -> np.ndarray:
    """gamma_hat at each evaluation point, for the arm of fit.

    The fitted-density ratio of the two regressions, maximized over the arm's
    observed range of W' and clamped to [1, cap]. Every step is elementwise,
    so the engine evaluates its envelope points one block at a time: a
    block's temporaries are block-sized, and its result is the same bits as
    its share of one pass over all points.
    """
    if cap < 1.0 or not np.isfinite(cap):
        raise BridgeboundError(f"gamma cap must be finite and >= 1, got {cap}")
    shapes = [np.shape(p) for p in (pts_m, pts_l0, pts_l1)]
    if len(shapes[0]) != 1 or shapes.count(shapes[0]) != 3:
        raise BridgeboundError("evaluation points pts_m, pts_l0 and pts_l1 must be 1-d arrays "
                               f"of one length, got shapes {shapes}")
    bc = fit.coef_c
    br = fit.coef_r
    mu_c = bc[0] + bc[1] * pts_m + bc[2] * pts_l0 + bc[3] * pts_l1
    mu_r = br[0] + br[1] * pts_l0 + br[2] * pts_l1
    log_sup = _kernels.gamma_sup_logratio(mu_c, fit.sig2_c, mu_r, fit.sig2_r, fit.bounds)
    return np.clip(np.exp(log_sup, out=log_sup), 1.0, cap, out=log_sup)


def benchmark_envelope(eta_hat: float, gap_mean: float, lam: float, kappa: float):
    """Mean over the points of xi(lambda * eta_hat, kappa * gamma_i), in closed form.

    With G = mean_i (gamma_i - 1) / gamma_i (unlike 1 - mean_i 1 / gamma_i, it
    does not cancel when every gamma_i is near 1) the mean is finite, >= 0 and
    lambda * eta_hat * ((kappa - 1) / kappa + G / kappa); kappa = +inf gives
    lambda * eta_hat.
    """
    if not (1.0 <= lam < math.inf and kappa >= 1.0):  # NaN fails too
        raise BridgeboundError(
            f"amplification factors must be >= 1 (lambda finite), got lambda={lam}, kappa={kappa}"
        )
    if not (0.0 <= eta_hat < math.inf and 0.0 <= gap_mean < 1.0):
        raise BridgeboundError("eta_hat must be finite and >= 0 and the mean of "
                               f"(gamma - 1) / gamma in [0, 1), got {eta_hat} and {gap_mean}")
    head = 1.0 if kappa == math.inf else (kappa - 1.0) / kappa
    return lam * eta_hat * (head + gap_mean / kappa)


def estimate_sigma_eta(treated_response: np.ndarray, treated_prediction: np.ndarray) -> float:
    """Root mean squared treated-arm residual under the current outcome draw."""
    resid = np.ascontiguousarray(treated_response - treated_prediction)
    if resid.size == 0:
        raise BridgeboundError("no treated rows to estimate the residual scale")
    return float(np.sqrt(_kernels.comp_mean(resid * resid)))


def residual_envelope(sigma_eta: float, k: float, g: float) -> float:
    """Bound 2 * sigma_eta * sqrt(k) * (g - 1) / g from the residual budget.

    k in [0, 1] is the share of residual variance attributed to confounding
    (range bound via the variance-of-a-bounded-variable inequality); g >= 1
    caps the selection ratio. Exactly zero at k = 0 or g = 1.
    """
    if not 0.0 <= k <= 1.0:
        raise BridgeboundError(f"k must lie in [0, 1], got {k}")
    if sigma_eta < 0.0 or not np.isfinite(sigma_eta):
        raise BridgeboundError(f"sigma_eta must be finite and >= 0, got {sigma_eta}")
    return envelope.xi_pointwise(2.0 * sigma_eta * np.sqrt(k), g)
