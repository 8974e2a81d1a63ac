"""Hot numeric kernels, vectorized with numpy.

The g-computation engine calls these per posterior draw over n*L points. All
summation is compensated (Neumaier) so aggregates agree with an
exact-summation oracle to well below 1e-12 and do not depend on how draws are
scheduled across threads.
"""

from __future__ import annotations

import math

import numpy as np

_LANES = 4096


def comp_sum(x):
    """Compensated sum: Neumaier lanes folded with an exactly rounded fsum."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.size
    if n == 0:
        return 0.0
    if n <= 2 * _LANES:
        return math.fsum(x)
    k = n // _LANES
    body = x[: k * _LANES].reshape(k, _LANES)
    s = body[0].copy()
    c = np.zeros(_LANES)
    for i in range(1, k):
        v = body[i]
        t = s + v
        big = np.abs(s) >= np.abs(v)
        c += np.where(big, (s - t) + v, (v - t) + s)
        s = t
    return math.fsum(np.concatenate([s, c, x[k * _LANES:]]))


def normal_logpdf(x, mean, var):
    const = -0.5 * math.log(2.0 * math.pi * var)
    inv = 1.0 / (2.0 * var)
    d = x - mean
    return const - d * d * inv


def outcome_mean_sum(m, l0, l1, a, beta):
    pred = (beta[0] + beta[1] * m + beta[2] * a + beta[3] * l0 + beta[4] * l1
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


# The log density ratio at one evaluation point is a quadratic in the
# observation w: (ir - ic) w^2 + linear terms. Its sup over a SORTED grid is
# therefore attained next to the vertex when concave (ir < ic, the usual case
# since conditioning shrinks the variance) and at an endpoint when convex or
# linear. Scanning a small window around the vertex plus both endpoints gives
# the same float max as the brute-force scan at O(log n) instead of O(n) per
# point; the window absorbs vertex rounding.
_WIN = 3


def gamma_sup_logratio(mu_c, sig2_c, mu_r, sig2_r, w):
    """w must be sorted ascending; returns the same values as the brute scan."""
    const = 0.5 * math.log(sig2_r / sig2_c)
    ic = 1.0 / (2.0 * sig2_c)
    ir = 1.0 / (2.0 * sig2_r)
    n = w.shape[0]
    npts = mu_c.shape[0]
    curv = ir - ic
    if curv < 0.0 and n > 2 * _WIN + 2:
        vertex = (ir * mu_r - ic * mu_c) / curv
        centre = np.searchsorted(w, vertex)
        offsets = np.arange(-_WIN, _WIN + 1)
        idx = np.clip(centre[:, None] + offsets[None, :], 0, n - 1)
        idx = np.concatenate(
            [idx, np.zeros((npts, 1), dtype=idx.dtype),
             np.full((npts, 1), n - 1, dtype=idx.dtype)], axis=1)
    elif curv >= 0.0 and n > 2:
        idx = np.tile(np.array([0, n - 1]), (npts, 1))
    else:  # small grids: just scan everything
        idx = np.tile(np.arange(n), (npts, 1))
    wj = w[idx]
    dr = wj - mu_r[:, None]
    dc = wj - mu_c[:, None]
    return np.max(const + dr * dr * ir - dc * dc * ic, axis=1)


def comp_mean(x) -> float:
    """Compensated mean of a 1-d array. Caller guarantees x is nonempty."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return comp_sum(x) / x.size
