"""Conjugate normal-inverse-gamma linear models.

The whole fitting stack reduces to one conjugate family: beta | sigma2 is normal
with covariance sigma2 * P^-1 and sigma2 is inverse gamma. Updates are exact, so
posterior draws are i.i.d. (no chain, no convergence diagnostics needed). The
two working models and the calibration side-regressions all go through here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BridgeboundError, NumericalFailure


@dataclass(frozen=True)
class NIGParams:
    """Normal-inverse-gamma parameters (prior or posterior).

    mean: (q,) location of beta.
    precision_matrix: (q, q) symmetric positive definite.
    shape, scale: inverse-gamma parameters for sigma2, both > 0.
    """

    mean: np.ndarray
    precision_matrix: np.ndarray
    shape: float
    scale: float

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        prec = np.asarray(self.precision_matrix, dtype=np.float64)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "precision_matrix", prec)
        if prec.ndim != 2 or prec.shape[0] != prec.shape[1]:
            raise BridgeboundError(f"precision matrix must be square, got {prec.shape}")
        if mean.ndim != 1 or mean.shape[0] != prec.shape[0]:
            raise BridgeboundError(
                f"mean has length {mean.shape[0]}, precision is {prec.shape}"
            )
        if not (np.isfinite(self.shape) and self.shape > 0):
            raise BridgeboundError(f"shape must be positive, got {self.shape}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise BridgeboundError(f"scale must be positive, got {self.scale}")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(prec)):
            raise BridgeboundError("non-finite entries in prior parameters")
        # entries are finite (checked above), so a plain difference needs no inf/nan care
        if (np.abs(prec - prec.T) > 1e-8 * max(1.0, np.abs(prec).max())).any():
            raise BridgeboundError("precision matrix is not symmetric")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class LinearModelDraw:
    """One joint draw (beta, sigma2) from an NIG law."""

    beta: np.ndarray
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, dtype=np.float64)))
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise BridgeboundError(f"sigma2 must be positive, got {self.sigma2}")


def default_prior(q: int) -> NIGParams:
    """Weakly informative default: zero mean, precision 1e-2 * I, IG(2, 2)."""
    return NIGParams(np.zeros(q), 1e-2 * np.eye(q), 2.0, 2.0)


def _chol(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"precision matrix not positive definite: {exc}") from exc


def nig_update(prior: NIGParams, design: np.ndarray, response: np.ndarray) -> NIGParams:
    """Exact conjugate update of an NIG law with Gaussian data.

    With zero rows this is the identity. Batches commute: updating with a
    stacked design equals sequential row-by-row updates (to rounding).
    """
    design = np.atleast_2d(np.asarray(design, dtype=np.float64))
    response = np.atleast_1d(np.asarray(response, dtype=np.float64))
    n = design.shape[0]
    if n == 0:
        return prior
    if design.shape[1] != prior.dim:
        raise BridgeboundError(
            f"design has {design.shape[1]} columns, prior dimension is {prior.dim}"
        )
    if response.shape[0] != n:
        raise BridgeboundError(
            f"{n} design rows but {response.shape[0]} responses"
        )
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(response))):
        raise NumericalFailure("non-finite values in design or response")

    # finite data can still overflow the Gram or the scale; the result is then
    # inf or nan, which the checks below refuse as a NumericalFailure
    with np.errstate(over="ignore", invalid="ignore"):
        prec_n = prior.precision_matrix + design.T @ design
        rhs = prior.precision_matrix @ prior.mean + design.T @ response
        low = _chol(prec_n)
        mean_n = np.linalg.solve(low.T, np.linalg.solve(low, rhs))
        shape_n = prior.shape + 0.5 * n
        scale_n = prior.scale + 0.5 * (
            response @ response
            + prior.mean @ prior.precision_matrix @ prior.mean
            - mean_n @ prec_n @ mean_n
        )
    if not (np.isfinite(scale_n) and scale_n > 0):
        raise NumericalFailure(f"posterior scale degenerated to {scale_n}")
    return NIGParams(mean_n, prec_n, shape_n, scale_n)


def sample_draw(params: NIGParams, rng: np.random.Generator) -> LinearModelDraw:
    """Draw (beta, sigma2) jointly: sigma2 first, then beta | sigma2.

    The two-variate order is part of the reproducibility contract; callers rely
    on a fixed consumption pattern per substream.
    """
    sigma2 = 1.0 / rng.gamma(params.shape, 1.0 / params.scale)
    z = rng.standard_normal(params.dim)
    low = _chol(params.precision_matrix)
    beta = params.mean + np.sqrt(sigma2) * np.linalg.solve(low.T, z)
    return LinearModelDraw(beta, float(sigma2))


def posterior_sigma2_mean(params: NIGParams) -> float:
    """Mean of the inverse-gamma sigma2 marginal (finite for shape > 1)."""
    if params.shape <= 1.0:
        raise BridgeboundError(f"sigma2 mean undefined for shape {params.shape} <= 1")
    return params.scale / (params.shape - 1.0)
