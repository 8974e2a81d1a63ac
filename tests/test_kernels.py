"""Each kernel against an independent reference: math.fsum for the sums, an
explicit design product for the outcome mean, the closed-form normal log
density, and for the density-ratio sup over the observed range, the
brute-force scan over the observed values and a dense grid on the range."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bridgebound._kernels import (_LANES, CompSum, comp_mean, comp_sum, gamma_sup_logratio,
                                  normal_logpdf, outcome_mean_sum)

from conftest import rng


def bits(x):
    """Bit patterns, so equality also tells -0.0 from 0.0 and NaN from NaN."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def neumaier_comp_sum(x):
    """comp_sum with Neumaier's branch in the lane loop, kept as a reference."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.size
    parts = x
    if n > 2 * _LANES:
        k = n // _LANES
        body = x[: k * _LANES].reshape(k, _LANES)
        s = body[0].copy()
        c = np.zeros(_LANES)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, k):
                v = body[i]
                t = s + v
                big = np.abs(s) >= np.abs(v)
                c += np.where(big, (s - t) + v, (v - t) + s)
                s = t
        parts = np.concatenate([s, c, x[k * _LANES:]])
    try:
        total = math.fsum(parts.tolist())
    except (OverflowError, ValueError):
        total = math.nan
    if math.isfinite(total):
        return total
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(x))


def observed_values_sup(mu_c, sig2_c, mu_r, sig2_r, w):
    """Sup of the log density ratio over every observed value w, by brute force."""
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


def test_comp_sum_matches_fsum_on_cancellation():
    x = np.array([1e16, 1.0, -1e16, 1.0])
    assert comp_sum(x) == math.fsum(x) == 2.0
    # long enough for the lane-folded path; a period of 3 puts big and small
    # values in every lane, so each lane loses its ones without compensation
    long = np.tile([1e16, 1.0, -1e16], 3 * _LANES)
    assert comp_sum(long) == math.fsum(long) == 3.0 * _LANES


def test_comp_sum_empty_and_large():
    assert comp_sum(np.array([])) == 0.0
    x = rng(1).standard_normal(100_000)
    exact = math.fsum(x)
    assert abs(comp_sum(x) - exact) <= 1e-10 * max(1.0, abs(exact))


def test_comp_sum_overflow_gives_ieee_sum():
    # fsum raises on these; the plain sum's inf or nan reaches the output check
    for n in (2, 3 * _LANES):
        big = np.full(n, 1e308)
        assert comp_sum(big) == math.inf and comp_sum(-big) == -math.inf
        assert math.isnan(comp_sum(np.resize([math.inf, -math.inf], n)))


@given(st.lists(st.floats(min_value=-1e8, max_value=1e8,
                          allow_nan=False), min_size=1, max_size=300))
def test_comp_sum_tracks_fsum(values):
    x = np.asarray(values)
    exact = math.fsum(x)
    assert abs(comp_sum(x) - exact) <= 1e-9 * max(1.0, abs(exact))


def comp_sum_cases():
    r = rng(20)
    lengths = (2 * _LANES, 2 * _LANES + 1, 3 * _LANES - 1, 3 * _LANES, 3 * _LANES + 1,
               7 * _LANES - 1, 7 * _LANES + 1)
    for n in lengths:
        # rows of x and -x(1 + 1e-15) in turn: every lane cancels to ~1e-15 x
        base = r.standard_normal(_LANES) * 10.0 ** r.uniform(-3, 3, _LANES)
        yield np.resize(np.concatenate([base, -base * (1.0 + 1e-15)]), n)
        # magnitudes 1e-300 .. 1e300 with random signs
        yield r.choice([-1.0, 1.0], n) * 10.0 ** r.uniform(-300, 300, n)
        # runs of -0.0, alone and among small values
        yield np.full(n, -0.0)
        x = r.standard_normal(n) * 1e-3
        x[: _LANES + 7] = -0.0
        x[-(2 * _LANES + 3):] = -0.0
        yield x
        # non-finite sums take the IEEE fallback
        for bad in ([math.inf], [-math.inf], [math.nan], [math.inf, -math.inf]):
            x = r.standard_normal(n)
            x[r.choice(n, len(bad), replace=False)] = bad
            yield x
        x = r.standard_normal(n)
        x[_LANES + 5] = 1e308
        x[n - 5] = 1e308
        yield x


def test_comp_sum_is_neumaier_bit_for_bit():
    # Knuth's TwoSum and Neumaier's branch add the same exact rounding error
    # to each lane's carry, so the folded sums are the same floats
    for x in comp_sum_cases():
        assert bits(comp_sum(x)) == bits(neumaier_comp_sum(x)), x.size


@st.composite
def split_arrays(draw):
    """An array of about 0 to 3 * _LANES elements, with an occasional special
    value, and cut points that split it into blocks: empty blocks and cuts at a
    lane row's edge included."""
    n = max(0, draw(st.sampled_from([0, 1, 2, 3])) * _LANES + draw(st.integers(-3, 3)))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = r.standard_normal(n) * 10.0 ** draw(st.integers(-300, 300))
    specials = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308,
                                -1.7976931348623157e308])
    for pos, value in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), specials),
                                    max_size=3 if n else 0)):
        x[pos] = value
    edges = st.sampled_from([k * _LANES + d for k in range(4) for d in (-1, 0, 1)])
    cuts = draw(st.lists(st.one_of(st.integers(0, n), edges.map(lambda c: min(max(c, 0), n))),
                         max_size=6))
    return x, sorted(cuts)


@given(split_arrays())
def test_comp_sum_streams_in_any_split(case):
    # summed block by block, the lanes see the same elements in the same rows
    x, cuts = case
    acc = CompSum()
    for lo, hi in zip([0, *cuts], [*cuts, x.size]):
        acc.add(x[lo:hi])
    got = acc.total()
    assert bits(got) == bits(comp_sum(x))
    if np.isnan(x).any():
        assert math.isnan(got)
    if math.isfinite(got):
        assert bits(got) == bits(neumaier_comp_sum(x))


def test_comp_mean_simple():
    assert comp_mean(np.array([2.0, 2.0, 2.0])) == 2.0


def test_normal_logpdf_matches_numpy_reference():
    x = rng(2).standard_normal(500)
    mean = rng(3).standard_normal(500)
    var = np.float64(1.7)
    got = normal_logpdf(x, mean, var)
    direct = -0.5 * np.log(2 * np.pi * var) - (x - mean) ** 2 / (2 * var)
    assert np.allclose(got, direct, atol=1e-12)


def test_normal_logpdf_is_the_closed_form_bit_for_bit():
    # computed in place on its one temporary: the inputs stay as they were and
    # every element is const - d * d * inv to the bit
    var = 1.7
    const = -0.5 * math.log(2.0 * math.pi * var)
    inv = 1.0 / (2.0 * var)
    x = rng(2).standard_normal(500)
    mean = rng(3).standard_normal(500)
    xk = rng(4).standard_normal((500, 6))
    kept = x.copy(), mean.copy(), xk.copy()
    for xs, mu in ((x, mean), (xk, mean[:, None])):
        d = xs - mu
        got = normal_logpdf(xs, mu, var)
        assert got.shape == xs.shape and np.array_equal(bits(got), bits(const - d * d * inv))
    assert all(np.array_equal(a, b) for a, b in zip((x, mean, xk), kept))
    d = 0.83 - -0.2
    got = normal_logpdf(0.83, -0.2, var)
    assert type(got) is float and got == const - d * d * inv


def test_outcome_mean_sum_equals_design_dot():
    r = rng(4)
    m, l0, l1 = (r.standard_normal(4000) for _ in range(3))
    beta = r.standard_normal(8)
    got = outcome_mean_sum(m, l0, l1, beta)
    for a in (0.0, 1.0):
        design = np.column_stack([np.ones_like(m), m, np.full_like(m, a), l0, l1,
                                  m * l0, m * l1, l0 * l1])
        exact = math.fsum(design @ beta)
        if a == 1.0:
            assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact))
        else:
            # the kernel evaluates a = 1; a enters only as beta[2] * a
            mean0 = exact / m.size
            assert abs(got / m.size - beta[2] - mean0) <= 1e-9 * max(1.0, abs(mean0))


class TestGammaSupLogratio:
    """The kernel takes the sup over the interval [w[0], w[-1]]. Against the
    scan over the observed values it may only be larger, up to rounding; it
    is the scan's expression at the clipped vertex (at the better end when
    the quadratic is not concave), and no point of a dense grid on the
    interval beats it beyond rounding."""

    @staticmethod
    def vertex(mu_c, sc, mu_r, sr):
        ic, ir = 1.0 / (2.0 * sc), 1.0 / (2.0 * sr)
        with np.errstate(over="ignore", invalid="ignore"):
            return (ir * mu_r - ic * mu_c) / (ir - ic)

    @classmethod
    def at_clipped_vertex(cls, mu_c, sc, mu_r, sr, w):
        """The scan's expression where the range sup is attained: at the
        clipped vertex, or at the better end when the quadratic is not concave."""
        if not 1.0 / (2.0 * sr) < 1.0 / (2.0 * sc):
            return np.maximum(observed_values_sup(mu_c, sc, mu_r, sr, w[:1]),
                              observed_values_sup(mu_c, sc, mu_r, sr, w[-1:]))
        x = np.clip(cls.vertex(mu_c, sc, mu_r, sr), w[0], w[-1])
        const = 0.5 * math.log(sr / sc)
        ic, ir = 1.0 / (2.0 * sc), 1.0 / (2.0 * sr)
        dr = x - mu_r
        dc = x - mu_c
        return const + dr * dr * ir - dc * dc * ic

    @classmethod
    def range_and_brute(cls, mu_c, sc, mu_r, sr, w, dense_points=300):
        args = (mu_c, np.float64(sc), mu_r, np.float64(sr), w)
        fast = gamma_sup_logratio(*args)
        brute = observed_values_sup(*args)
        assert np.array_equal(bits(fast), bits(cls.at_clipped_vertex(*args)))
        with np.errstate(invalid="ignore"):
            assert np.all(fast >= brute - 1e-14 * np.maximum(1.0, np.abs(brute)))
        # a dense grid on the interval, for an evenly spread subset of the points
        pick = np.unique(np.linspace(0, mu_c.size - 1, min(mu_c.size, dense_points)).astype(int))
        dense = observed_values_sup(mu_c[pick], np.float64(sc), mu_r[pick], np.float64(sr),
                                    np.linspace(w[0], w[-1], 10001))
        with np.errstate(invalid="ignore"):
            assert np.all(fast[pick] >= dense - 1e-14 * np.maximum(1.0, np.abs(dense)))
        return fast, brute

    @pytest.mark.parametrize("sc,sr", [(0.8, 1.0), (1.0, 0.8), (1.0, 1.0), (0.3, 2.5)])
    def test_matches_brute_scan(self, sc, sr):
        r = rng(5)
        w = np.sort(r.standard_normal(600))
        mu_c = r.standard_normal(3000) * 0.8
        mu_r = mu_c + 0.2 * r.standard_normal(3000)
        self.range_and_brute(mu_c, sc, mu_r, sr, w)

    def test_small_grids_match_brute(self):
        r = rng(6)
        for n in (1, 2, 3, 7):
            w = np.sort(r.standard_normal(n))
            mu_c = r.standard_normal(40)
            mu_r = r.standard_normal(40)
            fast, brute = self.range_and_brute(mu_c, 0.9, mu_r, 1.1, w)
            if n == 1:
                assert np.array_equal(bits(fast), bits(brute))

    def test_identical_laws_give_zero(self):
        mu = np.array([0.3, -1.2, 0.0])
        w = np.sort(rng(7).standard_normal(50))
        fast, _ = self.range_and_brute(mu, 1.3, mu.copy(), 1.3, w)
        assert np.allclose(fast, 0.0, atol=1e-14)

    def test_two_normal_closed_form(self):
        # ratio N(w; 0.5, 1) / N(w; 0, 1) = exp(0.5 w - 0.125), sup on [-3, 3] at w=3
        w = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        sup = gamma_sup_logratio(np.full(1, 0.5), np.float64(1.0),
                                 np.zeros(1), np.float64(1.0), w)
        assert math.isclose(float(np.exp(sup[0])), math.exp(1.375), rel_tol=1e-14)

    @given(st.integers(0, 2**32 - 1))
    def test_random_geometry_matches_brute(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 120))
        if r.random() < 0.5:
            w = np.sort(r.normal(0.0, r.uniform(0.5, 2.0), n))
        else:  # rank-like grid on (0, 1], with ties
            w = np.sort(np.ceil(r.uniform(size=n) * n) / n)
        mu_c = r.normal(0.0, 1.0, 25)
        mu_r = r.normal(0.0, 1.0, 25)
        sc = float(r.uniform(0.1, 3.0))
        if r.random() < 0.5:
            sr = float(r.uniform(0.1, 3.0))
        else:  # near-equal variances: a shallow concave quadratic
            sr = sc * (1.0 + 10.0 ** r.uniform(-3.0, 0.5))
        self.range_and_brute(mu_c, sc, mu_r, sr, w)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("share_inside", [0.1, 0.9])
    def test_engine_like_geometry(self, seed, share_inside):
        # as in a benchmark fit: 1000 observed values, raw on [0, 2] or tied
        # fractional ranks, two nearly equal variances, so nearly every
        # vertex lies far past one end of the range; a tenth are put inside,
        # or nine tenths
        r = np.random.default_rng(seed)
        n_obs, n_pts = 1000, 6000
        if seed % 2:
            w = np.sort(r.uniform(0.0, 2.0, n_obs))
        else:
            w = np.sort(np.ceil(r.uniform(size=n_obs) * 80) / 80)
        sc = 0.33 * r.uniform(0.5, 2.0)
        sr = sc * (1.0 + 10.0 ** r.uniform(-6.0, -3.0))
        mu_c = 1.0 + 0.4 * r.standard_normal(n_pts)
        mu_r = mu_c + 0.05 * r.standard_normal(n_pts)
        inside = r.random(n_pts) < share_inside
        ic, ir = 1.0 / (2.0 * sc), 1.0 / (2.0 * sr)
        target = r.uniform(w[0], w[-1], inside.sum())
        mu_c[inside] = (ir * mu_r[inside] - (ir - ic) * target) / ic
        v = self.vertex(mu_c, sc, mu_r, sr)
        assert (v < w[0] - 10).any() and (v > w[-1] + 10).any()
        n_inside = ((v > w[0]) & (v <= w[-1])).sum()
        assert n_inside > 0.05 * n_pts
        self.range_and_brute(mu_c, sc, mu_r, sr, w)

    def test_vertex_at_and_past_the_ends(self):
        # sig2_c = 1/4, sig2_r = 1/2 and mu_r = 0 make the vertex 2 mu_c exactly
        w = np.array([-1.5, -0.5, 0.25, 0.25, 1.0, 2.0])
        targets = np.array([
            w[0], w[-1], np.nextafter(w[0], -np.inf), np.nextafter(w[0], np.inf),
            np.nextafter(w[-1], -np.inf), np.nextafter(w[-1], np.inf),
            w[1], w[2], -1e3, 1e3, -1e300, 1e300,
        ])
        mu_c = targets / 2.0
        mu_r = np.zeros_like(mu_c)
        assert np.array_equal(self.vertex(mu_c, 0.25, mu_r, 0.5), targets)
        # vertices of 1e300 square to inf on purpose
        with np.errstate(over="ignore", invalid="ignore"):
            fast, brute = self.range_and_brute(mu_c, 0.25, mu_r, 0.5, w)
        # at a vertex that is one of the observed values both sups read it
        on_grid = np.isin(targets, w)
        assert np.array_equal(bits(fast[on_grid]), bits(brute[on_grid]))

    @pytest.mark.parametrize("mirror", [1.0, -1.0])
    def test_neighbour_rounds_above_an_end(self, mirror):
        # the vertex lies just past w[-1], where the quadratic is increasing,
        # yet w[-2], one ulp below w[-1], rounds to the larger value; mirrored,
        # w[1] beats w[0] for a vertex just below w[0]. The range sup reads
        # the end, so it is below the observed-values scan by that rounding step
        w = mirror * np.array([-0.4385397140957079, 0.5614602859042918, 0.5614602859042921])
        w = np.sort(w)
        mu_c = mirror * np.array([-0.2653871037279886])
        mu_r = mirror * np.array([-0.2654214710460525])
        sc, sr = 0.6732655185893088, 0.6732935023871764
        v = self.vertex(mu_c, sc, mu_r, sr)[0]
        neighbour, end = (w[1], w[2]) if mirror > 0 else (w[1], w[0])
        assert (v > end) if mirror > 0 else (v <= end)
        fast, brute = self.range_and_brute(mu_c, sc, mu_r, sr, w)
        at = [observed_values_sup(mu_c, np.float64(sc), mu_r, np.float64(sr), np.array([x]))[0]
              for x in (neighbour, end)]
        assert at[0] > at[1] and brute[0] == at[0] and fast[0] == at[1]

    @pytest.mark.parametrize("share_inside", [1.0, 0.1])
    def test_near_flat_geometry(self, share_inside):
        # near-flat quadratics on a narrow range far from 0, where rounding
        # can put a neighbouring observed value above the one nearest the
        # vertex; every point, or a tenth of them, has its vertex inside
        for seed in range(24):
            r = np.random.default_rng(seed)
            n_obs, n_pts = int(r.integers(9, 200)), 2000
            offset = 10.0 ** r.uniform(0.0, 4.0)
            w = np.sort(offset + 1e-3 * r.standard_normal(n_obs))
            sc = float(r.uniform(0.5, 2.0))
            sr = sc * (1.0 + 10.0 ** r.uniform(-9.0, -3.0))
            ic, ir = 1.0 / (2.0 * sc), 1.0 / (2.0 * sr)
            mu_r = offset + 1e-3 * r.standard_normal(n_pts)
            mu_c = mu_r + 1e-3 * r.standard_normal(n_pts)
            put = r.random(n_pts) < share_inside
            target = r.uniform(w[0], w[-1], put.sum())
            mu_c[put] = (ir * mu_r[put] - (ir - ic) * target) / ic
            self.range_and_brute(mu_c, sc, mu_r, sr, w, dense_points=50)

    def test_infinite_and_nan_vertices(self):
        w = np.array([-1.5, -0.5, 0.25, 1.0, 2.0])
        mu_c = np.array([np.inf, -np.inf, 1e308, -1e308, np.nan, 0.3, 0.3])
        mu_r = np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.nan, np.inf])
        v = self.vertex(mu_c, 0.25, mu_r, 0.5)
        assert np.array_equal(v, [np.inf, -np.inf, np.inf, -np.inf, np.nan, np.nan, -np.inf],
                              equal_nan=True)
        # infinite means meet inf - inf on purpose
        with np.errstate(over="ignore", invalid="ignore"):
            fast = gamma_sup_logratio(mu_c, np.float64(0.25), mu_r, np.float64(0.5), w)
            brute = observed_values_sup(mu_c, np.float64(0.25), mu_r, np.float64(0.5), w)
        expected = [-np.inf, -np.inf, -np.inf, -np.inf, np.nan, np.nan, np.inf]
        assert np.array_equal(fast, expected, equal_nan=True)
        assert np.array_equal(brute, expected, equal_nan=True)

    @pytest.mark.parametrize("n_obs", [1, 2])
    @pytest.mark.parametrize("sc,sr", [(0.8, 1.0), (1.0, 0.8), (1.0, 1.0 + 1e-4)])
    def test_one_and_two_value_grids(self, n_obs, sc, sr):
        # one value is the whole range, so both sups read it; between two
        # values (a binary benchmark) the range sup also reads the points
        # strictly between them, and is larger wherever the vertex falls there
        r = rng(30 + n_obs)
        w = np.sort(r.standard_normal(n_obs))
        mu_c = r.standard_normal(400) * 2.0
        mu_r = r.standard_normal(400) * 2.0
        if sc < sr:
            # a quarter of the vertices put between the two values
            ic, ir = 1.0 / (2.0 * sc), 1.0 / (2.0 * sr)
            mu_c[:100] = (ir * mu_r[:100] - (ir - ic) * r.uniform(w[0], w[-1], 100)) / ic
            v = self.vertex(mu_c, sc, mu_r, sr)
            assert (v <= w[0]).any() and (v > w[-1]).any()
        fast, brute = self.range_and_brute(mu_c, sc, mu_r, sr, w)
        if n_obs == 1:
            assert np.array_equal(bits(fast), bits(brute))
        elif sc < sr:
            assert (fast[:100] > brute[:100]).all()
