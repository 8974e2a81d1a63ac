"""Sharp bound arithmetic and effect assembly.

xi_pointwise is the attainable bound on the local confounding shift given the
two sensitivity parameters (outcome range eta, selection ratio gamma). Its
average over counterfactual mediator points has a closed form (see
calibration.benchmark_envelope), so no per-point array of bounds is ever
built. Everything downstream of a run reduces to these few identities, so they
are kept in one place and the g-computation engine calls them rather than
re-deriving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BridgeboundError


def xi_pointwise(eta: float, gamma: float) -> float:
    """Bound eta * (gamma - 1) / gamma for scalars; gamma = +inf degrades to eta.

    eta finite and >= 0 and gamma >= 1 are required.
    """
    eta, gamma = float(eta), float(gamma)
    if not (math.isfinite(eta) and eta >= 0.0):
        raise BridgeboundError(f"eta must be finite and >= 0, got {eta}")
    if not gamma >= 1.0:
        raise BridgeboundError(f"gamma must be >= 1 (inf allowed), got {gamma}")
    if math.isinf(gamma):
        return eta
    return eta * (gamma - 1.0) / gamma


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
