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


def assert_guard_matches_oracle(xs, ys, dtype, bands=(-1,)):
    """The guard picks dtype for these pairs; the kernel in that dtype and
    dtw_norm_pairs, which applies the guard itself, equal the oracle."""
    assert dtw.cost_dtype(xs, ys) == dtype
    for band in bands:
        expected = [_dtw_py.dtw_pair(x, y, band) for x, y in zip(xs, ys)]
        raw, plen = _dtw_np.dtw_many(xs, ys, band, dtype)
        assert raw.dtype == np.float64 and plen.dtype == np.int64
        assert list(zip(raw.tolist(), plen.tolist())) == expected, band
        got = dtw.dtw_norm_pairs(xs, ys, None if band < 0 else band)
        assert got.tolist() == [r / k for r, k in expected], band


# the largest span (max - min) the int32 guard accepts for 9 x 7 pairs,
# whose paths have at most 15 cells
SPAN_9X7 = (_dtw_np.INT32_INF - 1) // 15


class TestKernelParity:
    """The batched kernel equals the scalar _dtw_py oracle bit for bit,
    raw cost and path length, on whole batches of pairs."""

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
        for band in (-1, gap, gap + 1, gap + 3):
            raw, plen = _dtw_np.dtw_many(xs, ys, band)
            assert raw.dtype == np.float64 and plen.dtype == np.int64
            expected = [_dtw_py.dtw_pair(x, y, band) for x, y in zip(xs, ys)]
            assert list(zip(raw.tolist(), plen.tolist())) == expected, band
        # the same pairs in int32, the cost dtype the guard picks for them
        assert_guard_matches_oracle(xs, ys, np.int32, (-1, gap, gap + 1, gap + 3))

    @staticmethod
    def spread(lo, hi, n, m, seed):
        """Six pairs of integers in [lo, hi], both ends taken by pair 0."""
        rng = np.random.default_rng(seed)
        xs = rng.integers(lo, hi, (6, n), endpoint=True).astype(np.float64)
        ys = rng.integers(lo, hi, (6, m), endpoint=True).astype(np.float64)
        xs[0, 0] = lo
        ys[0, -1] = hi
        return xs, ys

    def test_integral_span_just_below_guard_is_int32(self):
        assert 15 * SPAN_9X7 < _dtw_np.INT32_INF
        xs, ys = self.spread(0, SPAN_9X7, 9, 7, 1)
        assert_guard_matches_oracle(xs, ys, np.int32, (-1, 2, 4))
        # every step costs the whole span, so the costs reach 9 * SPAN_9X7,
        # 0.6 of the sentinel, on a 9-cell path
        xs[:] = 0.0
        ys[:] = SPAN_9X7
        assert_guard_matches_oracle(xs, ys, np.int32, (-1, 2))

    def test_integral_span_at_guard_falls_back_to_float64(self):
        assert 15 * (SPAN_9X7 + 1) >= _dtw_np.INT32_INF
        xs, ys = self.spread(0, SPAN_9X7 + 1, 9, 7, 2)
        assert_guard_matches_oracle(xs, ys, np.float64, (-1, 2, 4))
        # the same span moved by -2^29 is still too wide
        assert_guard_matches_oracle(xs - 2.0 ** 29, ys - 2.0 ** 29, np.float64)

    def test_magnitude_just_below_2_30_is_int32(self):
        top = float(_dtw_np.INT32_INF - 1)
        xs, ys = self.spread(-5, 5, 12, 10, 3)
        assert_guard_matches_oracle(top - 5 - xs, top - 5 - ys, np.int32, (-1, 2, 5))
        assert_guard_matches_oracle(xs + 5 - top, ys + 5 - top, np.int32, (-1, 2, 5))

    @pytest.mark.parametrize("offset", [2.0 ** 30, -(2.0 ** 30), 2.0 ** 40])
    def test_magnitude_at_or_above_2_30_is_float64(self, offset):
        # a span of 10, far inside the cost bound; only the magnitude fails
        xs, ys = self.spread(-5, 5, 12, 10, 4)
        xs += offset
        ys += offset
        assert_guard_matches_oracle(xs, ys, np.float64, (-1, 2, 5))

    def test_non_integral_is_float64(self):
        xs, ys = self.spread(0, 6, 12, 10, 5)
        xs[3, 4] += 0.5  # one value off the integers is enough
        assert_guard_matches_oracle(xs, ys, np.float64, (-1, 2, 5))
        assert_guard_matches_oracle(xs / 4.0, ys / 4.0, np.float64, (-1, 2, 5))

    def test_rejects_other_cost_dtypes(self):
        with pytest.raises(ValueError):
            _dtw_np.dtw_many([[1.0]], [[2.0]], -1, np.int64)


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
