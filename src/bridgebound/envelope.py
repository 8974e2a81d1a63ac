"""Sharp bound arithmetic and effect assembly.

xi_pointwise is the attainable bound on the local confounding shift given the
two sensitivity parameters (outcome range eta, selection ratio gamma); the
aggregated version averages it over counterfactual mediator draws. Everything
downstream of a run reduces to these few identities, so they are kept in one
place and the g-computation engine calls them rather than re-deriving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import comp_mean
from .errors import BridgeboundError


def xi_pointwise(eta, gamma):
    """Bound eta * (gamma - 1) / gamma; gamma = +inf degrades to eta.

    eta >= 0 and gamma >= 1 are required. Scalar in, scalar out; arrays
    broadcast.
    """
    eta_arr = np.asarray(eta, dtype=np.float64)
    gamma_arr = np.asarray(gamma, dtype=np.float64)
    if np.any(np.isnan(eta_arr)) or np.any(np.isinf(eta_arr)) or np.any(eta_arr < 0.0):
        raise BridgeboundError(f"eta must be finite and >= 0, got {eta}")
    if np.any(np.isnan(gamma_arr)) or np.any(gamma_arr < 1.0):
        raise BridgeboundError(f"gamma must be >= 1 (inf allowed), got {gamma}")
    scalar = eta_arr.ndim == 0 and gamma_arr.ndim == 0
    eta_b, gamma_b = np.broadcast_arrays(eta_arr, gamma_arr)
    out = np.empty(eta_b.shape, dtype=np.float64)
    inf_mask = np.isinf(gamma_b)
    out[inf_mask] = eta_b[inf_mask]
    fin = ~inf_mask
    g = gamma_b[fin]
    out[fin] = eta_b[fin] * (g - 1.0) / g
    return float(out[()]) if scalar else out


def aggregate_xi_bar(xi_values) -> float:
    """Compensated mean of pointwise bounds over all (unit, draw) pairs."""
    xi = np.ascontiguousarray(xi_values, dtype=np.float64).ravel()
    if xi.size == 0:
        raise BridgeboundError("no pointwise bounds to aggregate")
    if np.any(~np.isfinite(xi)) or np.any(xi < 0.0):
        raise BridgeboundError("pointwise bounds must be finite and >= 0")
    return comp_mean(xi)


@dataclass(frozen=True)
class MediationEffects:
    nde: float
    nie: float
    te: float


def mediation_effects(theta, delta0, delta1) -> MediationEffects:
    """Direct/indirect/total effects from the three scalar contrasts.

    te is computed as nde + nie so additivity is exact in floating point.
    """
    nde = theta - delta0
    nie = delta1 - theta
    te = nde + nie
    return MediationEffects(nde, nie, te)


@dataclass(frozen=True)
class ScalarDecomposition:
    """Per-draw record of the anchor, the two shifts, and their envelopes."""

    theta_si: float
    delta_bar_0: float
    delta_bar_1: float
    xi_bar_0: float
    xi_bar_1: float
    theta: float

    @classmethod
    def assemble(cls, theta_si, delta_bar_0, delta_bar_1, xi_bar_0, xi_bar_1):
        """Build the record with theta = (theta_si + delta_bar_0) - delta_bar_1.

        That exact expression (and association order) is the per-draw identity
        the verification suite re-checks, so it lives in one place.
        """
        theta = (theta_si + delta_bar_0) - delta_bar_1
        return cls(theta_si, delta_bar_0, delta_bar_1, xi_bar_0, xi_bar_1, theta)
