"""Hot numeric kernels, vectorized with numpy.

The g-computation engine calls these per posterior draw, over n rows, the n*L
envelope points of the benchmark routes or the six anchor nodes. All
summation is compensated (TwoSum lanes folded by fsum) so aggregates agree
with an exact-summation oracle to well below 1e-12 and do not depend on how
draws are scheduled across threads.

gamma_sup_logratio is elementwise in its points: calibration calls it on one
block of envelope points at a time. It takes the sup of a quadratic over an
interval in closed form, one evaluation per point, so its temporaries are
block-sized vectors and its result does not depend on the blocking.
"""

from __future__ import annotations

import math

import numpy as np

_LANES = 4096


def comp_sum(x):
    """Compensated sum: TwoSum lanes folded with an exactly rounded fsum.

    Each lane keeps a running sum s and adds the exact rounding error of
    s + v to its carry, by Knuth's branch-free TwoSum. That error is the one
    Neumaier's branch computes, so the lanes hold the same floats; the one
    exception is an element equal to -DBL_MAX or DBL_MAX, where TwoSum's t - s can
    overflow, the carry turns nan and the IEEE fallback below answers.

    When the sum is not finite (it overflows or meets inf - inf), the plain
    IEEE sum (inf or nan) is returned, for the output writers to refuse.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.size
    parts = x
    if n > 2 * _LANES:
        k = n // _LANES
        body = x[: k * _LANES].reshape(k, _LANES)
        s = body[0].copy()
        c = np.zeros(_LANES)
        # lanes that overflow carry inf/nan on to the IEEE fallback below
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, k):
                v = body[i]
                t = s + v
                bp = t - s
                c += (s - (t - bp)) + (v - bp)
                s = t
        parts = np.concatenate([s, c, x[k * _LANES:]])
    try:
        # fsum walks a list far faster than an ndarray, with the same floats in the same order
        total = math.fsum(parts.tolist())
    except (OverflowError, ValueError):
        total = math.nan
    if math.isfinite(total):
        return total
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(x))


def normal_logpdf(x, mean, var):
    """const - d * d * inv with d = x - mean, computed in place on d; a float
    for scalar input."""
    const = -0.5 * math.log(2.0 * math.pi * var)
    inv = 1.0 / (2.0 * var)
    d = x - mean
    if not isinstance(d, np.ndarray):
        return float(const - d * d * inv)
    np.multiply(d, d, out=d)
    d *= inv
    return np.subtract(const, d, out=d)


def outcome_mean_sum(m, l0, l1, beta):
    """Sum over points of the outcome mean at a = 1 (see bridge.outcome_design)."""
    pred = (beta[0] + beta[1] * m + beta[2] + beta[3] * l0 + beta[4] * l1
            + beta[5] * (m * l0) + beta[6] * (m * l1) + beta[7] * (l0 * l1))
    return comp_sum(pred)


def _logratio_at(wj, mu_c, mu_r, const, ic, ir):
    """const + (wj - mu_r)^2 ir - (wj - mu_c)^2 ic, on one temporary."""
    dr = wj - mu_r
    np.multiply(dr, dr, out=dr)
    dr *= ir
    dr += const
    dc = wj - mu_c
    np.multiply(dc, dc, out=dc)
    dc *= ic
    dr -= dc
    return dr


def gamma_sup_logratio(mu_c, sig2_c, mu_r, sig2_r, w):
    """Sup over w in [w[0], w[-1]] of the log density ratio at each point.

    w is ascending; only its ends are read. At each point the log ratio
    log N(w; mu_c, sig2_c) - log N(w; mu_r, sig2_r) is a quadratic in w with
    leading coefficient ir - ic. When it is concave (ir < ic, the usual case
    since conditioning shrinks the variance) its sup over the interval is at
    the vertex clipped to the interval; otherwise it is at w[0] or w[-1].
    A NaN vertex stays NaN, and an infinite one is clipped to an end.

    The interval is the range of the arm's observed values, so in real
    arithmetic the sup is at least the sup over those values; for a benchmark
    with few distinct values (a binary W) it can be larger, which keeps the
    bound valid and makes it more conservative.
    """
    const = 0.5 * math.log(sig2_r / sig2_c)
    ic = 1.0 / (2.0 * sig2_c)
    ir = 1.0 / (2.0 * sig2_r)
    curv = ir - ic
    if not curv < 0.0:
        return np.maximum(_logratio_at(w[0], mu_c, mu_r, const, ic, ir),
                          _logratio_at(w[-1], mu_c, mu_r, const, ic, ir))
    vertex = (ir * mu_r - ic * mu_c) / curv
    return _logratio_at(np.clip(vertex, w[0], w[-1], out=vertex), mu_c, mu_r, const, ic, ir)


def comp_mean(x) -> float:
    """Compensated mean of a 1-d array. Caller guarantees x is nonempty."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return comp_sum(x) / x.size
