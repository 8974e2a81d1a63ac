import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bridgebound.envelope import xi_pointwise
from bridgebound.errors import BridgeboundError


def test_xi_frozen_values():
    assert xi_pointwise(5.0, 1.0) == 0.0
    assert xi_pointwise(1.0, 2.0) == 0.5
    assert xi_pointwise(6.0, 3.0) == 4.0
    assert xi_pointwise(0.0, 50.0) == 0.0
    assert xi_pointwise(2.5, math.inf) == 2.5
    # eta * (gamma - 1) overflows here; the bound is still eta
    assert xi_pointwise(2.0, 1e308) == 2.0


def test_xi_scalar_and_array_forms():
    out = xi_pointwise(1.0, 2.0)
    assert isinstance(out, float)
    assert isinstance(xi_pointwise(np.float64(6.0), np.float64(3.0)), float)
    # elementwise over arrays, bit for bit the scalar calls, inf and overflow included
    eta = np.array([5.0, 1.0, 6.0, 0.0, 2.5, 2.0, 0.3, 7e5])
    gamma = np.array([1.0, 2.0, 3.0, 50.0, math.inf, 1e308, 1.1, 4.798295622470661e16])
    xi = xi_pointwise(eta, gamma)
    assert isinstance(xi, np.ndarray) and xi.shape == eta.shape
    want = [xi_pointwise(e, g) for e, g in zip(eta.tolist(), gamma.tolist())]
    assert xi.tobytes() == np.array(want).tobytes()
    # broadcast against a scalar eta, and a 2-d grid keeps its shape
    assert xi_pointwise(2.0, gamma).tobytes() == np.array(
        [xi_pointwise(2.0, g) for g in gamma.tolist()]).tobytes()
    assert xi_pointwise(eta.reshape(2, 4), gamma.reshape(2, 4)).shape == (2, 4)


@pytest.mark.parametrize("eta,gamma,message", [
    ([1.0, -0.1, -2.0], 2.0, "eta must be finite and >= 0, got -0.1$"),
    ([1.0, np.inf], [2.0, 2.0], "eta must be finite and >= 0, got inf$"),
    (1.0, [2.0, 0.99, np.nan], r"gamma must be >= 1 \(inf allowed\), got 0.99$"),
    ([1.0, 1.0], [np.inf, np.nan], r"gamma must be >= 1 \(inf allowed\), got nan$"),
])
def test_xi_array_refusal_names_the_first_bad_value(eta, gamma, message):
    with pytest.raises(BridgeboundError, match=message):
        xi_pointwise(np.asarray(eta), np.asarray(gamma))


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
# gamma - 1 above ~1e15, where eta * (gamma - 1) / gamma can round above eta
@example(692743.3679651524, 2.791920139905233e16, 4.798295622470661e16)
@example(941621.3625858931, 1e15, 1e17)
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
