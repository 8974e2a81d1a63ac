"""Hot numeric kernels, vectorized with numpy.

The g-computation engine calls these per posterior draw, over n rows, the n*L
envelope points of the benchmark routes or the six anchor nodes. All
summation is compensated (TwoSum lanes folded by fsum) so aggregates agree
with an exact-summation oracle to well below 1e-12 and do not depend on how
draws are scheduled across threads.

gamma_sup_logratio is elementwise in its points: calibration calls it on one
block of envelope points at a time. Points whose sup-candidate vertex lies
past an end of the grid (nearly all of them on the benchmark routes) are
evaluated on two contiguous columns; only the interior ones are searched and
evaluated on their four neighbouring grid slots. Its temporaries are
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


def gamma_sup_logratio_brute(mu_c, sig2_c, mu_r, sig2_r, w):
    """Reference sup over every observation; the fast kernel must match it."""
    const = 0.5 * math.log(sig2_r / sig2_c)
    ic = 1.0 / (2.0 * sig2_c)
    ir = 1.0 / (2.0 * sig2_r)
    out = np.empty(mu_c.shape[0])
    # chunked so the (points x observations) buffer stays small
    step = max(1, (1 << 22) // max(w.size, 1))
    for lo in range(0, mu_c.shape[0], step):
        hi = min(lo + step, mu_c.shape[0])
        dr = w[None, :] - mu_r[lo:hi, None]
        dc = w[None, :] - mu_c[lo:hi, None]
        out[lo:hi] = np.max(const + dr * dr * ir - dc * dc * ic, axis=1)
    return out


def _logratio_at(wj, mu_c, mu_r, const, ic, ir):
    """const + dr*dr*ir - dc*dc*ic at grid value(s) wj, as in the brute scan.

    Evaluated in place, in the same order, so the bits are the brute scan's.
    """
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
    """Sup over the sorted grid w of the log density ratio at each point.

    At each point the log ratio is a quadratic in the observation w with
    leading coefficient ir - ic. When it is concave (ir < ic, the usual case
    since conditioning shrinks the variance) its sup over an ascending grid
    is at w[c - 1] or w[c], c = searchsorted(w, vertex); the guard slots
    w[c - 2] and w[c + 1] (indices clipped to the grid) catch a vertex that
    rounding moved across a grid point. Otherwise the sup is at w[0] or w[-1].

    In the concave case most vertices lie off the grid, and there the four
    slots hold two values: w[0] and w[1] when vertex <= w[0] (c = 0), and
    w[-2] and w[-1] when not vertex <= w[-1] (c = n, NaN included). So every
    point is first evaluated on those two columns, picked per point by which
    end its vertex is past, and only the interior points, w[0] < vertex <=
    w[-1], are searched and evaluated on their four slots, then scattered
    back. Each point thus sees the same candidate set as under the plain
    four-slot rule, and max is exact, so the result is that rule's to the bit.

    Candidates are evaluated as contiguous columns, by the same expression as
    gamma_sup_logratio_brute, and folded with np.maximum; a gathered (points,
    candidates) matrix reduced along its short axis costs several times more
    per element. The result does not depend on how the points are split into
    calls. The tests require the two kernels to agree bit for bit on random
    geometries: grids from one value up, tied rank-like grids, and variances
    with sig2_r / sig2_c - 1 down to 1e-3. Flatter quadratics can round a
    farther grid value up to the max, so there the two may differ in the last
    bits.
    """
    const = 0.5 * math.log(sig2_r / sig2_c)
    ic = 1.0 / (2.0 * sig2_c)
    ir = 1.0 / (2.0 * sig2_r)
    curv = ir - ic
    if not curv < 0.0:
        return np.maximum(_logratio_at(w[0], mu_c, mu_r, const, ic, ir),
                          _logratio_at(w[-1], mu_c, mu_r, const, ic, ir))
    vertex = (ir * mu_r - ic * mu_c) / curv
    last = w.size - 1
    below_last = vertex <= w[-1]
    inside = below_last & (vertex > w[0])
    past_last = ~below_last
    best = _logratio_at(np.where(past_last, w[max(last - 1, 0)], w[0]), mu_c, mu_r, const, ic, ir)
    np.maximum(best, _logratio_at(np.where(past_last, w[last], w[min(1, last)]),
                                  mu_c, mu_r, const, ic, ir), out=best)
    inner = np.flatnonzero(inside)
    if inner.size:
        best[inner] = _sup_near_vertex(w, vertex[inner], mu_c[inner], mu_r[inner], const, ic, ir)
    return best


def _sup_near_vertex(w, vertex, mu_c, mu_r, const, ic, ir):
    """Max of the log ratio over w[clip(c - 2 .. c + 1)], c = searchsorted(w, vertex)."""
    c = np.searchsorted(w, vertex)
    best = _logratio_at(np.take(w, c - 2, mode="clip"), mu_c, mu_r, const, ic, ir)
    for k in (-1, 0, 1):
        np.maximum(best, _logratio_at(np.take(w, c + k, mode="clip"), mu_c, mu_r, const, ic, ir),
                   out=best)
    return best


def comp_mean(x) -> float:
    """Compensated mean of a 1-d array. Caller guarantees x is nonempty."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return comp_sum(x) / x.size
