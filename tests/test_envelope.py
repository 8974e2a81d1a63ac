import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bridgebound.envelope import (MediationEffects, ScalarDecomposition,
                                  mediation_effects, xi_pointwise)
from bridgebound.errors import BridgeboundError


def test_xi_frozen_values():
    assert xi_pointwise(5.0, 1.0) == 0.0
    assert xi_pointwise(1.0, 2.0) == 0.5
    assert xi_pointwise(6.0, 3.0) == 4.0
    assert xi_pointwise(0.0, 50.0) == 0.0
    assert xi_pointwise(2.5, math.inf) == 2.5


def test_xi_scalar_and_array_forms():
    out = xi_pointwise(1.0, 2.0)
    assert isinstance(out, float)
    assert isinstance(xi_pointwise(np.float64(6.0), np.float64(3.0)), float)


def test_xi_rejects_out_of_range():
    with pytest.raises(BridgeboundError, match="eta must be finite"):
        xi_pointwise(-0.1, 2.0)
    with pytest.raises(BridgeboundError, match="gamma must be >= 1"):
        xi_pointwise(1.0, 0.99)
    with pytest.raises(BridgeboundError, match="eta must be finite"):
        xi_pointwise(math.inf, 2.0)
    with pytest.raises(BridgeboundError, match="gamma must be >= 1"):
        xi_pointwise(1.0, math.nan)


@given(st.floats(0.0, 1e6), st.floats(1.0, 1e12), st.floats(1.0, 1e12))
def test_xi_bounded_and_monotone_in_gamma(eta, g_a, g_b):
    lo, hi = sorted((g_a, g_b))
    xi_lo = xi_pointwise(eta, lo)
    xi_hi = xi_pointwise(eta, hi)
    assert 0.0 <= xi_lo <= eta and 0.0 <= xi_hi <= eta
    # weak monotonicity up to one rounding step in the ratio
    assert xi_lo <= xi_hi or math.isclose(xi_lo, xi_hi, rel_tol=1e-15)


@given(st.floats(0.0, 1e6), st.floats(0.0, 1e6), st.floats(1.0, 1e12))
def test_xi_monotone_in_eta(e_a, e_b, gamma):
    lo, hi = sorted((e_a, e_b))
    assert xi_pointwise(lo, gamma) <= xi_pointwise(hi, gamma)


def test_mediation_effects_frozen():
    eff = mediation_effects(2.0, 1.0, 4.0)
    assert eff == MediationEffects(nde=1.0, nie=2.0, te=3.0)
    flat = mediation_effects(1.5, 1.5, 1.5)
    assert flat.nde == 0.0 and flat.nie == 0.0 and flat.te == 0.0


@given(st.floats(-1e8, 1e8), st.floats(-1e8, 1e8), st.floats(-1e8, 1e8))
def test_mediation_effects_additive_exactly(theta, d0, d1):
    eff = mediation_effects(theta, d0, d1)
    assert eff.te == eff.nde + eff.nie


def test_scalar_decomposition_identity():
    rec = ScalarDecomposition.assemble(0.31, 0.07, -0.12, 0.2, 0.25)
    assert rec.theta == (rec.theta_si + rec.delta_bar_0) - rec.delta_bar_1
    assert rec.xi_bar_0 == 0.2 and rec.xi_bar_1 == 0.25
