"""Hot numeric kernels, vectorized with numpy.

The g-computation engine calls these per posterior draw, over n rows, the n*L
envelope points of the benchmark routes or the six anchor nodes. All
summation is compensated (Neumaier) so aggregates agree with an
exact-summation oracle to well below 1e-12 and do not depend on how draws are
scheduled across threads.

gamma_sup_logratio is elementwise in its points: calibration calls it on one
block of envelope points at a time, and it evaluates each candidate grid value
as a contiguous column over the block, so its temporaries are block-sized
vectors and its result does not depend on the blocking.
"""

from __future__ import annotations

import math

import numpy as np

_LANES = 4096


def comp_sum(x):
    """Compensated sum: Neumaier lanes folded with an exactly rounded fsum.

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
                big = np.abs(s) >= np.abs(v)
                c += np.where(big, (s - t) + v, (v - t) + s)
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
    const = -0.5 * math.log(2.0 * math.pi * var)
    inv = 1.0 / (2.0 * var)
    d = x - mean
    return const - d * d * inv


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


def gamma_sup_logratio(mu_c, sig2_c, mu_r, sig2_r, w):
    """Sup over the sorted grid w of the log density ratio at each point.

    At each point the log ratio is a quadratic in the observation w with
    leading coefficient ir - ic. When it is concave (ir < ic, the usual case
    since conditioning shrinks the variance) its sup over an ascending grid
    is at w[c - 1] or w[c], c = searchsorted(w, vertex); the guard slots
    w[c - 2] and w[c + 1] (indices clipped to the grid) catch a vertex that
    rounding moved across a grid point. Otherwise the sup is at w[0] or w[-1].

    Each candidate slot is evaluated as one contiguous column over all points,
    by the same expression as gamma_sup_logratio_brute, and the columns are
    folded with np.maximum; a gathered (points, candidates) matrix reduced
    along its short axis costs several times more per element. Max is exact,
    so the result does not depend on how the points are split into calls. The
    tests require the two kernels to agree bit for bit on random geometries:
    grids from one value up, tied rank-like grids, and variances with
    sig2_r / sig2_c - 1 down to 1e-3. Flatter quadratics can round a farther
    grid value up to the max, so there the two may differ in the last bits.
    """
    const = 0.5 * math.log(sig2_r / sig2_c)
    ic = 1.0 / (2.0 * sig2_c)
    ir = 1.0 / (2.0 * sig2_r)
    curv = ir - ic
    if curv < 0.0:
        c = np.searchsorted(w, (ir * mu_r - ic * mu_c) / curv)
        candidates = (np.take(w, c + k, mode="clip") for k in (-2, -1, 0, 1))
    else:
        candidates = (w[0], w[-1])
    best = None
    for wj in candidates:
        dr = wj - mu_r
        dc = wj - mu_c
        col = const + dr * dr * ir - dc * dc * ic
        best = col if best is None else np.maximum(best, col, out=best)
    return best


def comp_mean(x) -> float:
    """Compensated mean of a 1-d array. Caller guarantees x is nonempty."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return comp_sum(x) / x.size
