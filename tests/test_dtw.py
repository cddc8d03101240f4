"""DTW distance: worked examples, oracle agreement, kernel parity."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualq.stats import dtw
from dualq.stats import _dtw_np, _dtw_py

from _oracles import dtw_oracle, kernel_alignment


class TestWorkedExamples:
    def test_warp_absorbs_repeat(self):
        # [0,1,2] vs [0,1,1,2]: perfect alignment through a repeat
        raw, plen, norm = kernel_alignment([0, 1, 2], [0, 1, 1, 2])
        assert raw == 0.0
        assert plen == 4
        assert norm == 0.0

    def test_constant_offset(self):
        raw, plen, norm = kernel_alignment([1, 1], [2, 2])
        assert raw == 2.0
        assert plen == 2
        assert norm == 1.0

    def test_identical_series_zero(self):
        xs = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert dtw.dtw_norm(xs, xs) == 0.0

    def test_symmetry(self):
        x = [0.0, 2.0, 4.0, 1.0]
        y = [1.0, 3.0, 0.0]
        assert kernel_alignment(x, y)[0] == kernel_alignment(y, x)[0]

    def test_single_elements(self):
        raw, plen, norm = kernel_alignment([5.0], [2.0])
        assert raw == 3.0
        assert plen == 1
        assert norm == 3.0


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dtw.dtw_norm([], [1.0])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            dtw.dtw_norm([[1.0, 2.0]], [1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dtw.dtw_norm([float("nan"), 1.0], [1.0])
        with pytest.raises(ValueError):
            dtw.dtw_norm([1.0], [float("inf")])

    def test_rejects_infeasible_band(self):
        with pytest.raises(ValueError):
            dtw.dtw_norm([1.0, 2.0, 3.0, 4.0], [1.0], band=1)
        with pytest.raises(ValueError):
            dtw.dtw_norm([1.0, 2.0], [1.0, 2.0], band=-1)


class TestOracleAgreement:
    """The DP must match exhaustive path enumeration exactly.

    Integer-valued series keep every sum exact in float64, so
    equality here is bitwise, not approximate.
    """

    def test_exhaustive_short_grid(self):
        for n, m in itertools.product((1, 2, 3), repeat=2):
            for x in itertools.product((0, 1, 2), repeat=n):
                for y in itertools.product((0, 1, 2), repeat=m):
                    raw, plen, norm = kernel_alignment(x, y)
                    oraw, oplen, onorm = dtw_oracle(x, y)
                    assert raw == oraw, (x, y)
                    assert plen == oplen, (x, y)
                    assert norm == onorm, (x, y)

    def test_random_mid_lengths(self):
        rng = random.Random(404)
        for _ in range(300):
            n = rng.randint(1, 8)
            m = rng.randint(1, 8)
            x = [rng.randint(0, 5) for _ in range(n)]
            y = [rng.randint(0, 5) for _ in range(m)]
            raw, plen, norm = kernel_alignment(x, y)
            oraw, oplen, onorm = dtw_oracle(x, y)
            assert raw == oraw, (x, y)
            assert plen == oplen, (x, y)


@st.composite
def batches(draw):
    """P >= 2 pairs of one (n, m), integer-with-ties or float values, and
    a band of none, |n - m|, |n - m| + 2 or at least max(n, m)."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    p = draw(st.integers(2, 5))
    values = draw(st.sampled_from([
        st.integers(0, 3).map(float),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ]))
    xs = [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(p)]
    ys = [draw(st.lists(values, min_size=m, max_size=m)) for _ in range(p)]
    gap = abs(n - m)
    band = draw(st.sampled_from([-1, gap, gap + 2, max(n, m), max(n, m) + 3]))
    return np.array(xs), np.array(ys), band


def assert_matches_oracle(xs, ys, band):
    expected = [_dtw_py.dtw_pair(x, y, band) for x, y in zip(xs, ys)]
    raw, plen = _dtw_np.dtw_many(xs, ys, band)
    assert [(float(r), int(k)) for r, k in zip(raw, plen)] == expected, band


def assert_route_matches_oracle(xs, ys, route, bands=(-1,)):
    """packed_gcd_vmax gives route for these pairs, (g, vmax) for packed
    keys or None for float64 costs; dtw_many, and dtw_norm_pairs, which
    takes that route, equal the oracle."""
    assert dtw.packed_gcd_vmax(xs, ys) == route
    for band in bands:
        expected = [_dtw_py.dtw_pair(x, y, band) for x, y in zip(xs, ys)]
        raw, plen = _dtw_np.dtw_many(xs, ys, band)
        assert raw.dtype == np.float64 and plen.dtype == np.int64
        assert list(zip(raw.tolist(), plen.tolist())) == expected, band
        got = dtw.dtw_norm_pairs(xs, ys, None if band < 0 else band)
        assert got.tolist() == [r / k for r, k in expected], band


# the largest value the 2^53 cost guard accepts for 9 x 7 pairs, whose
# paths have at most 15 cells
MAX_9X7 = ((1 << 53) - 1) // 15


class TestKernelParity:
    """The batched kernel equals the scalar _dtw_py oracle bit for bit,
    raw cost and path length, on whole batches of pairs, and so does
    dtw_norm_pairs on each of its two routes."""

    @given(batch=batches())
    @settings(max_examples=200, deadline=None)
    def test_same_results(self, batch):
        assert_matches_oracle(*batch)

    def test_banded_parity(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(4, 60))
        ys = rng.normal(size=(4, 50))
        for band in (-1, 10, 20, 59):
            assert_matches_oracle(xs, ys, band)

    @pytest.mark.parametrize("n, m", [(9, 9), (16, 16), (17, 11), (11, 17),
                                      (30, 24)])
    def test_tie_heavy_path_choice(self, n, m):
        # 0/1 values make most cells tie between two or three predecessors,
        # so any change to the diagonal > vertical > horizontal choice, or to
        # the predecessor a tie is tested against, changes a path length.
        # The band of gap + 3 is narrower than the matrix mid-way, so the
        # diagonals there start and end next to cells left from earlier ones.
        rng = np.random.default_rng(1000 * n + m)
        xs = rng.integers(0, 2, (6, n)).astype(np.float64)
        ys = rng.integers(0, 2, (6, m)).astype(np.float64)
        xs[0] = 0.0  # one pair of constant, equal series: every cell ties
        ys[0] = 0.0
        xs[1] = np.arange(n) % 2  # alternating against constant
        ys[1] = 1.0
        gap = abs(n - m)
        # dtw_many, and the packed keys dtw_norm_pairs runs these pairs in
        assert_route_matches_oracle(xs, ys, (1, 1), (-1, gap, gap + 1, gap + 3))

    @staticmethod
    def spread(lo, hi, n, m, seed):
        """Six pairs of integers in [lo, hi], both ends taken by pair 0."""
        rng = np.random.default_rng(seed)
        xs = rng.integers(lo, hi, (6, n), endpoint=True).astype(np.float64)
        ys = rng.integers(lo, hi, (6, m), endpoint=True).astype(np.float64)
        xs[0, 0] = lo
        ys[0, -1] = hi
        return xs, ys

    def test_integral_span_just_below_guard_is_packed(self):
        assert 15 * MAX_9X7 < 1 << 53
        # multiples of g up to 6 g, and 1 among the multipliers
        g = MAX_9X7 // 6
        xs, ys = self.spread(0, 6, 9, 7, 1)
        xs[0, 1] = 1.0
        assert_route_matches_oracle(xs * g, ys * g, (g, 6), (-1, 2, 4))
        # every step costs the largest value, so the costs reach
        # 9 * MAX_9X7 on a 9-cell path, g times a packed cost of 9
        xs[:] = 0.0
        ys[:] = MAX_9X7
        assert_route_matches_oracle(xs, ys, (MAX_9X7, 1), (-1, 2))

    def test_integral_span_at_guard_falls_back_to_float64(self):
        assert 15 * (MAX_9X7 + 1) >= 1 << 53
        # 0 or MAX_9X7 + 1: divided by their gcd, the values would pack
        xs, ys = self.spread(0, 1, 9, 7, 2)
        top = float(MAX_9X7 + 1)
        assert_route_matches_oracle(xs * top, ys * top, None, (-1, 2, 4))
        # the same pairs moved by -1 are negative
        assert_route_matches_oracle(xs * top - 1, ys * top - 1, None)

    def test_wide_group_packs_only_by_its_gcd(self):
        # values up to 10 * 2^26 are too wide for the keys of 12 x 10
        # pairs (T < 1 beyond vmax = 2^30 // (3 << 7) - 1) unless divided
        # by their gcd; moved by 1, or negated, they run in float64
        g = 1 << 26
        xs, ys = self.spread(0, 10, 12, 10, 3)
        xs[0, 1] = 1.0
        assert _dtw_np.packed_layout(12, 10, 10 * g)[1] < 1
        assert_route_matches_oracle(xs * g, ys * g, (g, 10), (-1, 2, 5))
        assert_route_matches_oracle(xs * g + 1, ys * g + 1, None, (-1, 2, 5))
        assert_route_matches_oracle(-xs * g, -ys * g, None, (-1, 2, 5))

    @pytest.mark.parametrize("offset", [2.0 ** 30, -(2.0 ** 30), 2.0 ** 40])
    def test_magnitude_at_or_above_2_30_is_float64(self, offset):
        # a span of 10, but values of gcd 1 this large, or negative, do
        # not fit the packed keys
        xs, ys = self.spread(-5, 5, 12, 10, 4)
        xs += offset
        ys += offset
        assert_route_matches_oracle(xs, ys, None, (-1, 2, 5))

    def test_non_integral_is_float64(self):
        xs, ys = self.spread(0, 6, 12, 10, 5)
        xs[3, 4] += 0.5  # one value off the integers is enough
        assert_route_matches_oracle(xs, ys, None, (-1, 2, 5))
        assert_route_matches_oracle(xs / 4.0, ys / 4.0, None, (-1, 2, 5))

    def test_all_zero_group_is_packed_with_gcd_1(self):
        # np.gcd.reduce of zeros is 0; the group packs undivided
        assert_route_matches_oracle(np.zeros((2, 9)), np.zeros((2, 7)), (1, 0),
                                    (-1, 2))

    @pytest.mark.parametrize("m, ltype", [(32767, np.int16), (32768, np.int32)])
    def test_longest_int16_path_and_first_int32_one(self, m, ltype):
        # n = 1: every path crosses all m cells of the one row, so its length
        # is n + m - 1 = m. 32767 is the int16 maximum; one cell more must
        # fall back to int32, or the length wraps to -32768. Each kernel
        # call runs m diagonals of width 1, under a second.
        assert _dtw_np.length_dtype(1, m) == ltype
        rng = np.random.default_rng(m)
        xs = rng.integers(0, 4, (2, 1)).astype(np.float64)
        ys = rng.integers(0, 4, (2, m)).astype(np.float64)
        ys[0, :2] = (1.0, 3.0)
        assert _dtw_py.dtw_pair(xs[0], ys[0])[1] == m
        assert_route_matches_oracle(xs, ys, (1, 3))


@st.composite
def packed_batches(draw):
    """P >= 1 pairs of one (n, m) of multiples of g in [0, g * vmax],
    pair 0 taking 0 (when n + m > 2), g and g * vmax, and a band from
    batches' set, with the route packed_gcd_vmax must give them. vmax is
    0 (an all-zero group, route (1, 0)), 3, or the largest whose clamp
    period T is at least 1, 2, 3 or 4, so that T is small and many pairs
    saturate. g is 1, 2, 1500 or 7919, or puts g * vmax (n + m - 1) just
    below 2^53, route (g, vmax), or at or above it, route None."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    p = draw(st.integers(1, 5))
    shift = (n + m - 2).bit_length() + 2
    vmax = draw(st.sampled_from(
        [0, 3] + [_dtw_np.SATKEY // ((t + 2) << shift) - 1 for t in (1, 2, 3, 4)]))
    top = ((1 << 53) - 1) // (n + m - 1) // max(vmax, 1)
    g = draw(st.sampled_from([1, 2, 1500, 7919, top, top + 1]))
    values = st.one_of(st.sampled_from([0, vmax]), st.integers(0, vmax))
    xs = [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(p)]
    ys = [draw(st.lists(values, min_size=m, max_size=m)) for _ in range(p)]
    if vmax:
        xs[0][0] = vmax
        ys[0][-1] = 1
    gap = abs(n - m)
    band = draw(st.sampled_from([-1, gap, gap + 2, max(n, m), max(n, m) + 3]))
    if not vmax:
        route = (1, 0)
    elif (n + m - 1) * g * vmax >= 1 << 53:
        route = None
    else:
        route = (g, vmax)
    return (np.array(xs, dtype=np.float64) * g, np.array(ys, dtype=np.float64) * g,
            band, route)


class TestPacked:
    """dtw_packed, run on a group divided by its gcd, equals _dtw_py
    wherever it reports a pair exact, every pair it does not report
    reached SATC, and dtw_norm_pairs, which runs those again in dtw_many,
    equals the oracle on every pair."""

    @given(batch=packed_batches())
    @settings(max_examples=300, deadline=None)
    def test_parity_with_saturation(self, batch):
        xs, ys, band, route = batch
        assert dtw.packed_gcd_vmax(xs, ys) == route
        expected = [_dtw_py.dtw_pair(x, y, band) for x, y in zip(xs, ys)]
        if route is not None:
            g, vmax = route
            shift, period = _dtw_np.packed_layout(xs.shape[1], ys.shape[1], vmax)
            assert period >= 1
            raw, plen, exact = _dtw_np.dtw_packed(xs / g, ys / g, band, vmax)
            for r, k, ok, (oraw, oplen) in zip(raw.tolist(), plen.tolist(),
                                               exact.tolist(), expected):
                if ok:
                    assert (r * g, k) == (oraw, oplen)
                else:
                    assert oraw >= g << (30 - shift)
        got = dtw.dtw_norm_pairs(xs, ys, None if band < 0 else band)
        assert got.tolist() == [r / k for r, k in expected]

    def test_last_period_of_one_is_packed_and_zero_is_not(self, dtw_kernel_calls):
        # 9 x 7 pairs: S = 6, so T = 2^30 // ((vmax + 1) << 6) - 2
        top = _dtw_np.SATKEY // (3 << 6) - 1
        assert _dtw_np.packed_layout(9, 7, top) == (6, 1)
        assert _dtw_np.packed_layout(9, 7, top + 1) == (6, 0)
        rng = np.random.default_rng(9)
        for vmax, kernel in ((top, "dtw_packed"), (top + 1, "dtw_many")):
            xs = rng.integers(0, vmax, (4, 9), endpoint=True).astype(np.float64)
            ys = rng.integers(0, vmax, (4, 7), endpoint=True).astype(np.float64)
            xs[0, 0] = vmax
            assert dtw.packed_gcd_vmax(xs, ys) == (
                (1, vmax) if kernel == "dtw_packed" else None)
            dtw_kernel_calls.clear()
            for band in (-1, 2, 4):
                expected = [_dtw_py.dtw_pair(x, y, band) for x, y in zip(xs, ys)]
                got = dtw.dtw_norm_pairs(xs, ys, None if band < 0 else band)
                assert got.tolist() == [r / k for r, k in expected], band
            assert dtw_kernel_calls[0][:2] == (kernel, 4)

    def test_cost_below_satc_is_packed_and_at_satc_recomputed(self, dtw_kernel_calls):
        # 8 x 8 pairs against zeros: the diagonal is the one cheapest path,
        # so the raw cost is sum(x); S = 6 and SATC = 2^24
        satc = 1 << 24
        xs = np.full((2, 8), 1 << 21, dtype=np.float64)
        xs[0, 7] -= 1
        ys = np.zeros((2, 8))
        assert xs.sum(axis=1).tolist() == [satc - 1, satc]
        raw, plen, exact = _dtw_np.dtw_packed(xs, ys, -1, 1 << 21)
        assert exact.tolist() == [True, False]
        assert (raw[0], plen[0]) == (satc - 1, 8)
        got = dtw.dtw_norm_pairs(xs, ys)
        # the saturated pair runs again in float64 costs
        assert dtw_kernel_calls == [("dtw_packed", 2, (1, 1 << 21)), ("dtw_many", 1)]
        assert got.tolist() == [(satc - 1) / 8, satc / 8]

    @pytest.mark.parametrize("offset", [0.5, -1.0], ids=["float", "negative"])
    def test_float_or_negative_group_is_never_packed(self, offset, dtw_kernel_calls):
        rng = np.random.default_rng(17)
        xs = rng.integers(0, 4, (3, 12)).astype(np.float64)
        ys = rng.integers(0, 4, (3, 10)).astype(np.float64)
        xs[2, 5] = offset
        assert dtw.packed_gcd_vmax(xs, ys) is None
        expected = [_dtw_py.dtw_pair(x, y) for x, y in zip(xs, ys)]
        assert dtw.dtw_norm_pairs(xs, ys).tolist() == [r / k for r, k in expected]
        assert dtw_kernel_calls == [("dtw_many", 3)]


class TestBand:
    def test_wide_band_equals_unconstrained(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        assert kernel_alignment(x, y, band=29) == kernel_alignment(x, y)

    def test_band_zero_is_lockstep(self):
        x = [1.0, 2.0, 3.0]
        y = [2.0, 2.0, 5.0]
        raw, plen, norm = kernel_alignment(x, y, band=0)
        assert raw == 1.0 + 0.0 + 2.0
        assert plen == 3

    def test_narrow_band_cannot_beat_full(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=25)
            y = rng.normal(size=25)
            assert (kernel_alignment(x, y, band=3)[0]
                    >= kernel_alignment(x, y)[0] - 1e-12)


class TestNormalization:
    @given(
        x=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30),
        y=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_path_length_bounds(self, x, y):
        n, m = len(x), len(y)
        raw, plen, norm = kernel_alignment(x, y)
        assert max(n, m) <= plen <= n + m - 1
        assert norm == raw / plen

    def test_length_invariance_of_scale(self):
        # same shape at different sampling densities scores near zero
        base = np.sin(np.linspace(0, 3.0, 50))
        dense = np.sin(np.linspace(0, 3.0, 100))
        assert dtw.dtw_norm(base, dense) < 0.01
