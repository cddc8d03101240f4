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
    """P >= 2 pairs of one (n, m) of integers, with ties in [0, 3] or
    spread over [-10^6, 10^6] (int64 keys),
    moved by 0 or +-2^40, and a band of none, |n - m|, |n - m| + 2 or at
    least max(n, m)."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    p = draw(st.integers(2, 5))
    values = draw(st.sampled_from([st.integers(0, 3),
                                   st.integers(-10 ** 6, 10 ** 6)]))
    offset = draw(st.sampled_from([0, 1 << 40, -(1 << 40)]))
    xs = [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(p)]
    ys = [draw(st.lists(values, min_size=m, max_size=m)) for _ in range(p)]
    gap = abs(n - m)
    band = draw(st.sampled_from([-1, gap, gap + 2, max(n, m), max(n, m) + 3]))
    return (np.array(xs, dtype=np.float64) + offset,
            np.array(ys, dtype=np.float64) + offset, band)


def assert_matches_oracle(xs, ys, band, route=None):
    """packed_route gives these pairs route (lo, vmax, keys), when given.
    dtw_packed on the pairs shifted by -lo equals _dtw_py, in the route's
    keys wherever it reports a pair exact, and in int64 keys on every
    pair; a pair that int32 keys do not report exact reached their SATC.
    dtw_norm_pairs equals the oracle on every pair."""
    expected = [_dtw_py.dtw_pair(x, y, band) for x, y in zip(xs, ys)]
    lo, vmax, keys = dtw.packed_route(xs, ys)
    if route is not None:
        assert (lo, vmax, keys) == route
    for width in dict.fromkeys((keys, np.int64)):
        shift, period = _dtw_np.packed_layout(xs.shape[1], ys.shape[1], vmax, width)
        assert period >= 1
        raw, plen, exact = _dtw_np.dtw_packed(xs - lo, ys - lo, band, vmax, width)
        assert raw.dtype == np.float64 and plen.dtype == np.int64
        for r, k, ok, (oraw, oplen) in zip(raw.tolist(), plen.tolist(),
                                           exact.tolist(), expected):
            if ok:
                assert (r, k) == (oraw, oplen), (band, width)
            else:
                assert width is np.int32 and oraw >= 1 << (30 - shift)
    got = dtw.dtw_norm_pairs(xs, ys, None if band < 0 else band)
    assert got.tolist() == [r / k for r, k in expected], band


# the largest value the 2^53 cost guard accepts for 9 x 7 pairs, whose
# paths have at most 15 cells
MAX_9X7 = ((1 << 53) - 1) // 15


class TestKernelParity:
    """The batched kernel equals the scalar _dtw_py oracle bit for bit,
    raw cost and path length, on whole batches of pairs in both key
    widths, and so does dtw_norm_pairs on the route of each group."""

    @given(batch=batches())
    @settings(max_examples=200, deadline=None)
    def test_same_results(self, batch):
        assert_matches_oracle(*batch)

    def test_banded_parity(self):
        rng = np.random.default_rng(7)
        xs = rng.integers(-1000, 1000, (4, 60), endpoint=True).astype(np.float64)
        ys = rng.integers(-1000, 1000, (4, 50), endpoint=True).astype(np.float64)
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
        for band in (-1, gap, gap + 1, gap + 3):
            assert_matches_oracle(xs, ys, band, (0.0, 1, np.int32))

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
        # 9 x 7 pairs: S = 6, and int64 keys hold costs below 2^56, so the
        # 2^53 guard alone bounds the span
        assert 15 * MAX_9X7 < 1 << 53
        assert _dtw_np.packed_layout(9, 7, MAX_9X7, np.int64)[1] >= 1
        # multiples of g up to 6 g, and 1 among the multipliers
        g = MAX_9X7 // 6
        xs, ys = self.spread(0, 6, 9, 7, 1)
        xs[0, 1] = 1.0
        for band in (-1, 2, 4):
            assert_matches_oracle(xs * g, ys * g, band, (0.0, 6 * g, np.int64))
        # every step costs the largest value, so the costs reach
        # 9 * MAX_9X7 on a 9-cell path
        xs[:] = 0.0
        ys[:] = MAX_9X7
        for band in (-1, 2):
            assert_matches_oracle(xs, ys, band, (0.0, MAX_9X7, np.int64))

    def test_integral_span_at_guard_raises(self, dtw_kernel_calls):
        assert 15 * (MAX_9X7 + 1) >= 1 << 53
        # 0 or MAX_9X7 + 1: int64 keys would hold the span, but a cost
        # may reach 2^53, where _dtw_py's float64 sums round;
        # moved by -1 or by 2^40 the span, and the verdict, are the same
        xs, ys = self.spread(0, 1, 9, 7, 2)
        top = float(MAX_9X7 + 1)
        for offset in (0.0, -1.0, 2.0 ** 40):
            with pytest.raises(ValueError, match=r"9 x 7 pairs: a cost could reach 2\^53"):
                dtw.packed_route(xs * top + offset, ys * top + offset)
            with pytest.raises(ValueError, match="2\\^53"):
                dtw.dtw_norm_pairs(xs * top + offset, ys * top + offset, 4)
        assert dtw_kernel_calls == []

    def test_span_beyond_the_int64_keys_raises(self):
        # 100 x 100 pairs: S = 10, so int64 keys hold costs below 2^52 and
        # take vmax up to (2^52 - 1) // 199, where the 2^53 guard alone
        # would accept about twice as much
        assert _dtw_np.packed_layout(100, 100, 0, np.int64)[0] == 10
        top = ((1 << 52) - 1) // 199
        assert 199 * (top + 1) < 1 << 53
        rng = np.random.default_rng(6)
        for vmax in (top, top + 1):
            xs = rng.integers(0, vmax, (2, 100), endpoint=True).astype(np.float64)
            ys = rng.integers(0, vmax, (2, 100), endpoint=True).astype(np.float64)
            xs[0, :3] = (0.0, 1.0, vmax)
            if vmax == top:
                assert_matches_oracle(xs, ys, 3, (0.0, top, np.int64))
            else:
                with pytest.raises(ValueError, match=r"100 x 100 pairs: a cost "
                                                     r"could reach 2\^52$"):
                    dtw.dtw_norm_pairs(xs, ys)

    def test_wide_group_of_multiples_takes_int64_keys(self, dtw_kernel_calls):
        # multiples of 2^26 up to 10 * 2^26 are too wide for the int32 keys
        # of 12 x 10 pairs (T < 1 beyond vmax = 2^30 // (3 << 7) - 1), moved
        # by 1 or negated too: the group takes int64 keys at its full span
        g = 1 << 26
        xs, ys = self.spread(0, 10, 12, 10, 3)
        xs[0, 1] = 1.0
        assert _dtw_np.packed_layout(12, 10, 10 * g, np.int32)[1] < 1
        for band in (-1, 2, 5):
            assert_matches_oracle(xs * g, ys * g, band, (0.0, 10 * g, np.int64))
            assert_matches_oracle(xs * g + 1, ys * g + 1, band,
                                  (1.0, 10 * g, np.int64))
            assert_matches_oracle(-xs * g, -ys * g, band,
                                  (-10.0 * g, 10 * g, np.int64))
        dtw_kernel_calls.clear()
        dtw.dtw_norm_pairs(xs * g, ys * g)
        assert dtw_kernel_calls == [("dtw_packed", 6, np.int64)]

    @pytest.mark.parametrize("offset", [2.0 ** 30, -(2.0 ** 30), 2.0 ** 40])
    def test_magnitude_at_or_above_2_30_is_shifted(self, offset, dtw_kernel_calls):
        # a span of 10 at any offset packs in int32 keys, shifted by its
        # least value: |x - y| does not change
        xs, ys = self.spread(-5, 5, 12, 10, 4)
        xs += offset
        ys += offset
        for band in (-1, 2, 5):
            assert_matches_oracle(xs, ys, band, (offset - 5, 10, np.int32))
        assert {call[2] for call in dtw_kernel_calls} == {np.int32}

    def test_non_integral_raises_naming_the_value(self, dtw_kernel_calls):
        xs, ys = self.spread(0, 6, 12, 10, 5)
        xs[3, 4] += 0.5  # one value off the integers is enough
        with pytest.raises(ValueError, match=rf"must be integers, got {xs[3, 4]}$"):
            dtw.dtw_norm_pairs(xs, ys, 5)
        # named as a plain float, not as np.float64(0.25)
        with pytest.raises(ValueError, match=r"got 0\.25$"):
            dtw.dtw_norm(np.array([1.0, 2.0, 3.0]), np.array([3, 0.25]))
        assert dtw_kernel_calls == []

    @pytest.mark.parametrize("m, ltype", [(32767, np.int16), (32768, np.int32)])
    def test_longest_int16_path_and_first_int32_one(self, m, ltype):
        # n = 1: every path crosses all m cells of the one row, so its length
        # is n + m - 1 = m, the longest path an int16 holds or one cell
        # more. Its m - 1 horizontal steps, V = 32766 or 32767 = 2^15 - 1,
        # fill the L = 15 bits of V. Each kernel call runs m diagonals of
        # width 1, under a second.
        assert (m <= np.iinfo(np.int16).max) == (ltype is np.int16)
        assert (m - 1).bit_length() == (1 + m - 2).bit_length() == 15
        rng = np.random.default_rng(m)
        xs = rng.integers(0, 4, (2, 1)).astype(np.float64)
        ys = rng.integers(0, 4, (2, m)).astype(np.float64)
        ys[0, :2] = (1.0, 3.0)
        assert _dtw_py.dtw_pair(xs[0], ys[0])[1] == m
        assert_matches_oracle(xs, ys, -1, (0.0, 3, np.int32))


@st.composite
def packed_batches(draw):
    """P >= 1 pairs of one (n, m), n + m > 2, of integers in [offset,
    offset + vmax], pair 0 taking 0, 1 and vmax above offset, and a band
    from batches' set, with the route packed_route must give them. vmax
    is 0 (an all-equal group, route (offset, 0, int32)), 3, the largest
    whose int32 clamp period T is at least 1, 2, 3 or 4, so that T is
    small and many pairs saturate, one more than the largest with T >= 1,
    which takes int64 keys, or puts vmax (n + m - 1) just below 2^53,
    int64 keys too, or at it, route None: a ValueError. offset is 0, -3
    or 2^40."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(2 if n == 1 else 1, 40))
    p = draw(st.integers(1, 5))
    shift = (n + m - 2).bit_length() + 2
    tops = [_dtw_np.satkey(np.int32) // ((t + 2) << shift) - 1 for t in (1, 2, 3, 4)]
    top = ((1 << 53) - 1) // (n + m - 1)
    vmax = draw(st.sampled_from([0, 3, *tops, tops[0] + 1, top, top + 1]))
    offset = draw(st.sampled_from([0, -3, 1 << 40]))
    values = st.one_of(st.sampled_from([0, vmax]), st.integers(0, vmax))
    xs = [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(p)]
    ys = [draw(st.lists(values, min_size=m, max_size=m)) for _ in range(p)]
    if vmax:
        xs[0][0] = vmax
        ys[0][-1] = 1
        if m > 1:
            ys[0][0] = 0
        else:
            xs[0][-1] = 0
    gap = abs(n - m)
    band = draw(st.sampled_from([-1, gap, gap + 2, max(n, m), max(n, m) + 3]))
    if not vmax:
        route = (float(offset), 0, np.int32)
    elif (n + m - 1) * vmax >= 1 << 53:
        route = None
    else:
        keys = np.int32 if vmax in tops or vmax == 3 else np.int64
        route = (float(offset), vmax, keys)
    return (np.array(xs, dtype=np.float64) + offset,
            np.array(ys, dtype=np.float64) + offset, band, route)


class TestPacked:
    """dtw_packed, run on a group shifted by its least value, equals
    _dtw_py wherever it reports a pair exact, every pair it does not
    report reached SATC, int64 keys report every pair of a group the
    int32 keys take exact, and dtw_norm_pairs, which runs the pairs int32
    keys saturate again in int64 keys, equals the oracle on every pair."""

    @given(batch=packed_batches())
    @settings(max_examples=300, deadline=None)
    def test_parity_with_saturation(self, batch):
        xs, ys, band, route = batch
        if route is None:
            with pytest.raises(ValueError, match="2\\^53"):
                dtw.packed_route(xs, ys)
        else:
            assert_matches_oracle(xs, ys, band, route)

    def test_last_period_of_one_is_packed_and_zero_is_not(self, dtw_kernel_calls):
        # 9 x 7 pairs: S = 6, so T = 2^30 // ((vmax + 1) << 6) - 2 in int32
        # keys; at T = 0 the group takes int64 keys
        top = _dtw_np.satkey(np.int32) // (3 << 6) - 1
        assert _dtw_np.packed_layout(9, 7, top, np.int32) == (6, 1)
        assert _dtw_np.packed_layout(9, 7, top + 1, np.int32) == (6, 0)
        rng = np.random.default_rng(9)
        for vmax, keys in ((top, np.int32), (top + 1, np.int64)):
            xs = rng.integers(0, vmax, (4, 9), endpoint=True).astype(np.float64)
            ys = rng.integers(0, vmax, (4, 7), endpoint=True).astype(np.float64)
            xs[0, 0] = vmax
            xs[0, 1] = 0
            xs[0, 2] = 1
            for band in (-1, 2, 4):
                assert_matches_oracle(xs, ys, band, (0.0, vmax, keys))
                dtw_kernel_calls.clear()
                dtw.dtw_norm_pairs(xs, ys, None if band < 0 else band)
                assert dtw_kernel_calls[0] == ("dtw_packed", 4, keys)

    def test_cost_below_satc_is_packed_and_at_satc_recomputed(self, dtw_kernel_calls):
        # 8 x 8 pairs against zeros: the diagonal is the one cheapest path,
        # so the raw cost is sum(x); S = 6 and SATC = 2^24 in int32 keys
        satc = 1 << 24
        xs = np.full((2, 8), 1 << 21, dtype=np.float64)
        xs[0, 7] -= 1
        ys = np.zeros((2, 8))
        assert xs.sum(axis=1).tolist() == [satc - 1, satc]
        raw, plen, exact = _dtw_np.dtw_packed(xs, ys, -1, 1 << 21, np.int32)
        assert exact.tolist() == [True, False]
        assert (raw[0], plen[0]) == (satc - 1, 8)
        raw, plen, exact = _dtw_np.dtw_packed(xs, ys, -1, 1 << 21, np.int64)
        assert exact.tolist() == [True, True]
        assert list(zip(raw.tolist(), plen.tolist())) == [(satc - 1, 8), (satc, 8)]
        assert dtw.packed_route(xs, ys) == (0.0, 1 << 21, np.int32)
        got = dtw.dtw_norm_pairs(xs, ys)
        # the saturated pair runs again in int64 keys
        assert dtw_kernel_calls == [("dtw_packed", 2, np.int32),
                                    ("dtw_packed", 1, np.int64)]
        assert got.tolist() == [(satc - 1) / 8, satc / 8]

    def test_negative_group_is_shifted(self, dtw_kernel_calls):
        rng = np.random.default_rng(17)
        xs = rng.integers(0, 4, (3, 12)).astype(np.float64)
        ys = rng.integers(0, 4, (3, 10)).astype(np.float64)
        xs[2, 5] = -1.0
        ys[1, 2] = 3.0
        assert_matches_oracle(xs, ys, -1, (-1.0, 4, np.int32))
        dtw_kernel_calls.clear()
        dtw.dtw_norm_pairs(xs, ys)
        assert dtw_kernel_calls == [("dtw_packed", 3, np.int32)]


class TestBand:
    def test_wide_band_equals_unconstrained(self):
        rng = np.random.default_rng(3)
        x = rng.integers(-1000, 1000, 30)
        y = rng.integers(-1000, 1000, 30)
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
            x = rng.integers(-1000, 1000, 25)
            y = rng.integers(-1000, 1000, 25)
            assert kernel_alignment(x, y, band=3)[0] >= kernel_alignment(x, y)[0]


class TestNormalization:
    @given(
        x=st.lists(st.integers(-100, 100), min_size=1, max_size=30),
        y=st.lists(st.integers(-100, 100), min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_path_length_bounds(self, x, y):
        n, m = len(x), len(y)
        raw, plen, norm = kernel_alignment(x, y)
        assert max(n, m) <= plen <= n + m - 1
        assert norm == raw / plen

    def test_length_invariance_of_scale(self):
        # same shape at different sampling densities scores near zero:
        # under 1% of the amplitude
        base = np.round(1000 * np.sin(np.linspace(0, 3.0, 50)))
        dense = np.round(1000 * np.sin(np.linspace(0, 3.0, 100)))
        assert dtw.dtw_norm(base, dense) < 10
