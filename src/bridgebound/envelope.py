"""Sharp bound arithmetic.

xi_pointwise is the attainable bound on the local confounding shift given the
two sensitivity parameters (outcome range eta, selection ratio gamma), for one
pair or elementwise over arrays, as the oracle checks its cells. Its amplified
average over counterfactual mediator points is lambda * eta_hat *
((kappa - 1) / kappa + G / kappa), G the mean of (gamma - 1) / gamma (see
calibration.benchmark_envelope), so no per-point array of bounds is built."""

from __future__ import annotations

import numpy as np

from .errors import BridgeboundError


def xi_pointwise(eta, gamma):
    """Bound eta * (gamma - 1) / gamma, elementwise; gamma = +inf degrades to eta.

    eta finite and >= 0 and gamma >= 1 are required everywhere; the first value
    that is not names the error. The result never exceeds eta: for large finite
    gamma the product can overflow or round one ulp up. Scalar arguments give a
    float, arrays an array of their broadcast shape.
    """
    # [()] turns a 0-d array into a numpy scalar, whose arithmetic is cheaper
    eta = np.asarray(eta, dtype=np.float64)[()]
    gamma = np.asarray(gamma, dtype=np.float64)[()]
    ok = np.isfinite(eta) & (eta >= 0.0)
    if not ok.all():
        raise BridgeboundError(f"eta must be finite and >= 0, got {np.extract(~ok, eta)[0]}")
    ok = gamma >= 1.0   # NaN fails too
    if not ok.all():
        raise BridgeboundError(
            f"gamma must be >= 1 (inf allowed), got {np.extract(~ok, gamma)[0]}")
    # the product can overflow to inf, and gamma = inf gives nan, which fmin
    # drops for eta
    with np.errstate(over="ignore", invalid="ignore"):
        xi = np.fmin(eta * (gamma - 1.0) / gamma, eta)
    return float(xi) if xi.ndim == 0 else xi
