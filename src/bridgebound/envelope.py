"""Sharp bound arithmetic.

xi_pointwise is the attainable bound on the local confounding shift given the
two sensitivity parameters (outcome range eta, selection ratio gamma). Its
amplified average over counterfactual mediator points is lambda * eta_hat *
((kappa - 1) / kappa + G / kappa), G the mean of (gamma - 1) / gamma (see
calibration.benchmark_envelope), so no per-point array of bounds is built."""

from __future__ import annotations

import math

from .errors import BridgeboundError


def xi_pointwise(eta: float, gamma: float) -> float:
    """Bound eta * (gamma - 1) / gamma for scalars; gamma = +inf degrades to eta.

    eta finite and >= 0 and gamma >= 1 are required. The result never exceeds
    eta: for large finite gamma the product can overflow or round one ulp up.
    """
    eta, gamma = float(eta), float(gamma)
    if not (math.isfinite(eta) and eta >= 0.0):
        raise BridgeboundError(f"eta must be finite and >= 0, got {eta}")
    if not gamma >= 1.0:
        raise BridgeboundError(f"gamma must be >= 1 (inf allowed), got {gamma}")
    if math.isinf(gamma):
        return eta
    return min(eta * (gamma - 1.0) / gamma, eta)
